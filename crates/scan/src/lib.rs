//! Design-for-test transformations: scan insertion.
//!
//! Two insertion styles, matching the DATE'98 paper's setting:
//!
//! * [`insert_mux_scan`] — conventional full scan: every flip-flop gets
//!   a multiplexer (built from mission gates here) selecting between its
//!   functional D input and the previous scan cell (paper, Figure 1a).
//! * [`insert_functional_scan`] — test point insertion (TPI) in the
//!   style of Lin et al. (DAC'97): scan paths are routed *through
//!   functional logic* by forcing the side inputs of existing
//!   combinational paths to non-controlling values during scan mode,
//!   using primary-input assignments and, where needed, inserted test
//!   points (paper, Figure 1b). Flip-flops with no affordable functional
//!   path fall back to MUX segments.
//!
//! Both return a [`ScanDesign`] describing the transformed circuit, the
//! scan-mode primary-input constraints, and the full geometry of every
//! chain (cells, sensitized paths, side inputs, inversion parities) —
//! everything the functional scan chain *testing* flow (crate `fscan`)
//! needs.
//!
//! # Examples
//!
//! ```
//! use fscan_netlist::{generate, GeneratorConfig};
//! use fscan_scan::{insert_functional_scan, TpiConfig};
//!
//! let c = generate(&GeneratorConfig::new("demo", 1).gates(120).dffs(10));
//! let design = insert_functional_scan(&c, &TpiConfig::default())?;
//! assert_eq!(design.chains().len(), 1);
//! design.verify()?;
//! # Ok::<(), fscan_scan::ScanError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod design;
mod error;
mod mux;
mod partial;
mod tpi;

pub use design::{ScanCell, ScanChain, ScanDesign, SegmentKind, SideInput};
pub use error::ScanError;
pub use mux::insert_mux_scan;
pub use partial::{ff_dependency_graph, insert_partial_scan, select_scan_ffs, PartialScanConfig};
pub use tpi::{insert_functional_scan, TpiConfig};
