//! Pins the reproduction to the paper's §2.3 sample rule. The paper's
//! tables and figures are checked by the experiments in
//! `retroweb_bench::paper`, which `crates/bench/tests/paper.rs` runs.

use retroweb::retrozilla::{ComponentName, Format, MappingRule};
use retroweb::xpath::parse as xparse;

#[test]
fn section_2_3_rule_display_form() {
    let rule = MappingRule::candidate(
        ComponentName::new("runtime").unwrap(),
        xparse("BODY[1]/DIV[2]/TABLE[3]/TR[1]/TD[3]/TABLE[1]/TR[6]/TD[1]/text()[1]").unwrap(),
        Format::Text,
    );
    let display = rule.display();
    // The paper's §2.3 sample rule, property for property.
    assert!(display.contains("name         : runtime"));
    assert!(display.contains("optionality  : mandatory"));
    assert!(display.contains("multiplicity : single-valued"));
    assert!(display.contains("format       : text"));
    assert!(display.contains(
        "location     : BODY[1]/DIV[2]/TABLE[3]/TR[1]/TD[3]/TABLE[1]/TR[6]/TD[1]/text()[1]"
    ));
}
