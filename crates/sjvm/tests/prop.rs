//! Property tests for the JVM substrate: the builder always produces
//! verifiable bytecode, and the interpreter implements the documented
//! numeric semantics.

use proptest::prelude::*;
use s2fa_sjvm::builder::{Expr, FnBuilder};
use s2fa_sjvm::{verify, ClassTable, HostValue, Interp, JType, MethodTable, NumKind};

/// A small random integer expression over one parameter.
#[derive(Debug, Clone)]
enum E {
    X,
    C(i8),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Neg(Box<E>),
    Min(Box<E>, Box<E>),
    Max(Box<E>, Box<E>),
    Abs(Box<E>),
    Sel(Box<E>, Box<E>, Box<E>),
}

fn strategy() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![Just(E::X), any::<i8>().prop_map(E::C)];
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Mul(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| E::Neg(Box::new(a))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Min(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Max(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| E::Abs(Box::new(a))),
            (inner.clone(), inner.clone(), inner).prop_map(|(a, b, c)| E::Sel(
                Box::new(a),
                Box::new(b),
                Box::new(c)
            )),
        ]
    })
}

fn to_builder(e: &E, x: s2fa_sjvm::builder::LocalId) -> Expr {
    match e {
        E::X => Expr::local(x),
        E::C(v) => Expr::const_i(*v as i64),
        E::Add(a, b) => to_builder(a, x).add(to_builder(b, x)),
        E::Sub(a, b) => to_builder(a, x).sub(to_builder(b, x)),
        E::Mul(a, b) => to_builder(a, x).mul(to_builder(b, x)),
        E::Neg(a) => to_builder(a, x).neg(),
        E::Min(a, b) => to_builder(a, x).min(to_builder(b, x)),
        E::Max(a, b) => to_builder(a, x).max(to_builder(b, x)),
        E::Abs(a) => to_builder(a, x).abs(),
        E::Sel(c, a, b) => Expr::select(
            to_builder(c, x).lt(Expr::const_i(0)),
            to_builder(a, x),
            to_builder(b, x),
        ),
    }
}

/// Reference evaluation with the documented `Int` semantics (wrap at 32
/// bits after every arithmetic operation).
fn eval(e: &E, x: i32) -> i32 {
    match e {
        E::X => x,
        E::C(v) => *v as i32,
        E::Add(a, b) => eval(a, x).wrapping_add(eval(b, x)),
        E::Sub(a, b) => eval(a, x).wrapping_sub(eval(b, x)),
        E::Mul(a, b) => eval(a, x).wrapping_mul(eval(b, x)),
        E::Neg(a) => eval(a, x).wrapping_neg(),
        E::Min(a, b) => eval(a, x).min(eval(b, x)),
        E::Max(a, b) => eval(a, x).max(eval(b, x)),
        E::Abs(a) => eval(a, x).wrapping_abs(),
        E::Sel(c, a, b) => {
            if eval(c, x) < 0 {
                eval(a, x)
            } else {
                eval(b, x)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn builder_output_always_verifies(e in strategy()) {
        let mut classes = ClassTable::new();
        let mut methods = MethodTable::new();
        let mut b = FnBuilder::new("f", &[("x", JType::Int)], Some(JType::Int));
        let x = b.param(0);
        let body = to_builder(&e, x);
        b.ret(body);
        let id = b.finish(&mut classes, &mut methods).expect("builds");
        let depths = verify::verify_method(methods.get(id), &methods).expect("verifies");
        // every instruction is reached, and the stack holds the result
        prop_assert!(depths.entry.iter().all(Option::is_some));
        prop_assert!(depths.max >= 1);
    }

    #[test]
    fn interpreter_matches_wrapping_reference(e in strategy(), x in any::<i16>()) {
        let mut classes = ClassTable::new();
        let mut methods = MethodTable::new();
        let mut b = FnBuilder::new("f", &[("x", JType::Int)], Some(JType::Int));
        let xl = b.param(0);
        let body = to_builder(&e, xl);
        b.ret(body);
        let id = b.finish(&mut classes, &mut methods).expect("builds");
        let mut interp = Interp::new(&classes, &methods);
        let (out, stats) = interp.run(id, &[HostValue::I(x as i64)]).expect("runs");
        prop_assert_eq!(out.as_i64(), Some(eval(&e, x as i32) as i64));
        prop_assert!(stats.ns > 0.0);
        prop_assert!(stats.instructions > 0);
    }

    #[test]
    fn interpreter_is_deterministic(e in strategy(), x in any::<i16>()) {
        let mut classes = ClassTable::new();
        let mut methods = MethodTable::new();
        let mut b = FnBuilder::new("f", &[("x", JType::Int)], Some(JType::Int));
        let xl = b.param(0);
        let body = to_builder(&e, xl);
        b.ret(body);
        let id = b.finish(&mut classes, &mut methods).expect("builds");
        let mut interp = Interp::new(&classes, &methods);
        let a = interp.run(id, &[HostValue::I(x as i64)]).expect("runs");
        let b2 = interp.run(id, &[HostValue::I(x as i64)]).expect("runs");
        prop_assert_eq!(a.0, b2.0);
        prop_assert_eq!(a.1.instructions, b2.1.instructions);
    }

    #[test]
    fn long_arithmetic_does_not_wrap_at_32(a in any::<i32>(), b in any::<i32>()) {
        let mut classes = ClassTable::new();
        let mut methods = MethodTable::new();
        let mut fb = FnBuilder::new(
            "f",
            &[("a", JType::Long), ("b", JType::Long)],
            Some(JType::Long),
        );
        let pa = fb.param(0);
        let pb = fb.param(1);
        fb.ret(Expr::local(pa).add(Expr::local(pb)));
        let id = fb.finish(&mut classes, &mut methods).expect("builds");
        let mut interp = Interp::new(&classes, &methods);
        let (out, _) = interp
            .run(id, &[HostValue::I(a as i64), HostValue::I(b as i64)])
            .expect("runs");
        prop_assert_eq!(out.as_i64(), Some(a as i64 + b as i64));
        // literal kind helper is consistent
        prop_assert_eq!(NumKind::Long.jtype(), JType::Long);
    }
}
