//! Empty on purpose: `servebench/Cargo.lock` names this package and the
//! three dependency edges on it, so it stays until that lock is rewritten.
