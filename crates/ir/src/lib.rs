//! # skadi-ir — a multi-level IR for hardware-agnostic ops
//!
//! The paper's access layer builds FlowGraph vertices from "IR-based
//! primitives, in addition to predefined operators" (§1), using MLIR in
//! the prototype. The key requirements it states (§2.2): the IR must be
//! generic enough to express the computing patterns data systems use, and
//! it must lower onto multiple hardware backends (CPU, FPGA, GPU) so "a
//! single piece of code [can be lowered] to multiple hardware backends,
//! based on a set of predefined policies".
//!
//! This crate is a compact MLIR-alike with exactly those properties:
//!
//! - [`types`]: frames (dataframes), tensors, scalars.
//! - [`op`]/[`module`]: SSA ops in a [`Module`], grouped into dialects
//!   (relational, tensor, scalar, kernel), with a verifier and a textual
//!   form.
//! - [`dialect`]: typed constructors for each dialect's ops.
//! - [`pass`]/[`passes`]: a pass manager with canonicalization, constant
//!   folding, common-subexpression elimination, dead-code elimination,
//!   and — the one the paper leans on — cross-domain operator *fusion*.
//! - [`backend`]: CPU/GPU/FPGA backend descriptors with per-op cost
//!   models and the selection policy; [`lower`] rewrites dialect ops into
//!   backend-annotated kernel ops (one op may be lowered to several
//!   backends for a direct comparison, as vertices D1/D2 in the paper's
//!   Figure 2).
//!
//! # Examples
//!
//! ```
//! use skadi_ir::prelude::*;
//!
//! let mut m = Module::new();
//! let scan = rel::scan(&mut m, "events", frame_ty(&[("v", ScalarType::I64)]));
//! let filt = rel::filter(&mut m, scan, "v > 10");
//! let proj = rel::project(&mut m, filt, &["v"]);
//! m.mark_output(proj);
//! m.verify().unwrap();
//!
//! // Fuse the filter+project chain, then lower to a GPU kernel.
//! let mut pm = PassManager::standard();
//! pm.run(&mut m).unwrap();
//! let plan = skadi_ir::lower::lower_to_kernels(&m, &BackendPolicy::prefer(Backend::Gpu)).unwrap();
//! assert!(!plan.kernels.is_empty());
//! ```

pub mod backend;
pub mod dialect;
pub mod error;
pub mod lower;
pub mod module;
pub mod op;
pub mod pass;
pub mod passes;
pub mod types;

pub use backend::{Backend, BackendPolicy, CostEstimate};
pub use error::IrError;
pub use module::Module;
pub use op::{Attr, Dialect, Op, OpId, ValueId};
pub use pass::{Pass, PassManager};
pub use types::{frame_ty, IrType, ScalarType};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::backend::{Backend, BackendPolicy};
    pub use crate::dialect::{rel, scalar, tensor};
    pub use crate::error::IrError;
    pub use crate::module::Module;
    pub use crate::op::{Attr, Dialect, OpId, ValueId};
    pub use crate::pass::PassManager;
    pub use crate::types::{frame_ty, IrType, ScalarType};
}
