//! Byte pins of the two report renderings: one `render_json` and one
//! `render_human` document over findings whose artifact, location and
//! detail carry a quote, a backslash, a newline, U+0001 and `é`. The
//! JSON escapes and the human layout are part of the CLI contract, so
//! any change to either shows up here.

use clr_verify::{Diagnostic, LintCode, Report};

fn report() -> Report {
    let mut r = Report::new();
    r.push(Diagnostic::new(
        LintCode::GraphCycle,
        "graph:\"q\"\\b",
        "task 1\nline 2",
        "ctl \u{1} é done",
    ));
    r.push(Diagnostic::new(
        LintCode::DuplicatePoints,
        "db:é",
        "points \\ 1, \"2\"",
        "tab\there\u{1}",
    ));
    r
}

#[test]
fn json_report_bytes_are_pinned() {
    assert_eq!(
        report().render_json(),
        concat!(
            "{\"findings\":[",
            "{\"code\":\"CLR001\",\"severity\":\"deny\",\"artifact\":\"graph:\\\"q\\\"\\\\b\",",
            "\"location\":\"task 1\\nline 2\",\"detail\":\"ctl \\u0001 é done\",",
            "\"hint\":\"remove or reverse one edge of the reported cycle\"},",
            "{\"code\":\"CLR033\",\"severity\":\"warn\",\"artifact\":\"db:é\",",
            "\"location\":\"points \\\\ 1, \\\"2\\\"\",\"detail\":\"tab\\there\\u0001\",",
            "\"hint\":\"insert through push_if_new to deduplicate on metrics\"}",
            "],\"deny\":1,\"warn\":1}",
        )
    );
}

#[test]
fn human_report_bytes_are_pinned() {
    assert_eq!(
        report().render_human(),
        concat!(
            "CLR001 [deny] graph:\"q\"\\b (task 1\nline 2): ctl \u{1} é done\n",
            "  hint: remove or reverse one edge of the reported cycle\n",
            "CLR033 [warn] db:é (points \\ 1, \"2\"): tab\there\u{1}\n",
            "  hint: insert through push_if_new to deduplicate on metrics\n",
            "2 finding(s): 1 deny, 1 warn\n",
        )
    );
}
