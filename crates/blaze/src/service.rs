//! The Blaze accelerator-manager service.
//!
//! "FPGA accelerators can be registered to the Blaze accelerator manager so
//! that Spark application developers can access FPGA accelerators using
//! provided APIs" (§2). The registry is shared and thread-safe: in a real
//! deployment every worker node holds one.
//!
//! Registering a design under a live id replaces it for later lookups.
//! A lookup hands out the `Arc` of the design it found, so a serving run,
//! which resolves its routes once up front, keeps executing the designs
//! it resolved even if one is replaced mid-run.

use crate::accel::Accelerator;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Thread-safe registry mapping accelerator ids to deployed designs.
#[derive(Debug, Default)]
pub struct AcceleratorRegistry {
    map: RwLock<HashMap<String, Arc<Accelerator>>>,
}

impl AcceleratorRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) an accelerator under its id.
    pub fn register(&self, accel: Accelerator) {
        self.map.write().insert(accel.id.clone(), Arc::new(accel));
    }

    /// Looks an accelerator up by id.
    pub fn lookup(&self, id: &str) -> Option<Arc<Accelerator>> {
        self.map.read().get(id).cloned()
    }

    /// Registered accelerator ids, sorted.
    pub fn ids(&self) -> Vec<String> {
        let mut v: Vec<String> = self.map.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Number of registered accelerators.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::DataLayout;
    use s2fa_sjvm::{JType, RddOp, Shape};

    fn dummy(id: &str, operator: RddOp) -> Accelerator {
        let shape = Shape::Scalar(JType::Int);
        Accelerator {
            id: id.into(),
            kernel: s2fa_hlsir::CFunction {
                name: id.into(),
                params: vec![],
                body: vec![],
            },
            operator,
            input_layout: DataLayout::from_shape(&shape, "in"),
            output_layout: DataLayout::from_shape(&shape, "out"),
            time_model: None,
        }
    }

    #[test]
    fn register_and_lookup() {
        let r = AcceleratorRegistry::new();
        assert!(r.is_empty());
        r.register(dummy("b", RddOp::Map));
        r.register(dummy("a", RddOp::Map));
        assert_eq!(r.ids(), vec!["a", "b"]);
        assert_eq!(r.len(), 2);
        assert!(r.lookup("a").is_some());
        assert!(r.lookup("z").is_none());
    }

    #[test]
    fn replace_is_seen_by_later_lookups_only() {
        let r = AcceleratorRegistry::new();
        r.register(dummy("x", RddOp::Map));
        let before = r.lookup("x").unwrap();
        // replacing keeps one entry per id; later lookups see the new
        // design, an earlier lookup keeps the one it resolved
        r.register(dummy("x", RddOp::Reduce));
        assert_eq!(r.len(), 1);
        assert_eq!(r.lookup("x").unwrap().operator, RddOp::Reduce);
        assert_eq!(before.operator, RddOp::Map);
    }

    #[test]
    fn registry_is_sync() {
        fn check<T: Send + Sync>() {}
        check::<AcceleratorRegistry>();
    }
}
