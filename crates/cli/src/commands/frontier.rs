//! `fastbuf frontier`: the slack-vs-cost Pareto frontier.

use fastbuf_api::{Objective, Session};

use super::{load_lib, load_net, CliError};
use crate::args::Flags;

pub(super) fn frontier(argv: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(argv, &["net", "lib", "max-cost"], &[])?;
    let tree = load_net(&flags)?;
    let session = Session::new(load_lib(&flags)?);
    let max_cost = flags.parsed_or("max-cost", 64u32)?;
    let outcome = session
        .request(&tree)
        .objective(Objective::SlackCost { max_cost })
        .solve()?;
    // Every point's predicted slack must agree with a forward evaluation
    // of its placements (exit 17 otherwise).
    outcome.verify(&tree, session.library())?;
    let frontier = outcome.scenarios[0]
        .frontier()
        .expect("a slack-cost request answers with a frontier");
    println!("{:>8} {:>9} {:>16}", "cost", "buffers", "slack");
    for p in &frontier.points {
        println!(
            "{:>8} {:>9} {:>16}",
            p.cost,
            p.placements.len(),
            p.slack.to_string()
        );
    }
    let base = frontier.points.first().expect("never empty");
    let best = frontier.points.last().expect("never empty");
    println!(
        "\nimprovement {} over unbuffered at cost {}",
        best.slack - base.slack,
        best.cost
    );
    Ok(())
}
