//! Shared-site fleets and site-capacity text files for design-level
//! resource-constrained buffering (`fastbuf-global`).
//!
//! A [`SuiteSpec`](crate::SuiteSpec) fleet gives every net its own private
//! buffer sites; a real design has nets *competing* for the same physical
//! positions. [`SharedSuiteSpec`] builds such a fleet deterministically:
//! every net is a 2-pin line whose length (and therefore buffering benefit)
//! is jittered per net, and each net's candidate sites are mapped onto a
//! contiguous window of a small shared pool of physical site ids. With a
//! pool smaller than the fleet's total buffer appetite, independently
//! optimal solves collide on the hot ids — exactly the infeasible starting
//! point the Lagrangian pricing loop exists to repair, while the per-net
//! length jitter gives the pricing a gradient to separate nets with.
//!
//! The node→site mapping is kept *outside* [`RoutingTree`] (a plain
//! `Vec<Option<u32>>` indexed by [`NodeId::index`](fastbuf_rctree::NodeId))
//! so the single-net layers never learn about cross-net coupling.
//!
//! [`parse_capacity`] / [`write_capacity`] give site capacities the same
//! line-numbered text format treatment as edit scripts and variation specs.

use std::collections::HashSet;

use fastbuf_buflib::text;
use fastbuf_buflib::units::{Microns, Seconds};
use fastbuf_rctree::RoutingTree;

use crate::line::LineNetSpec;
use crate::LineError;

/// One net of a shared-site fleet: its routing tree plus the mapping from
/// tree nodes to shared physical site ids.
#[derive(Clone, Debug)]
pub struct SharedNet {
    /// The routing tree (private node ids, as always).
    pub tree: RoutingTree,
    /// `site_of[node.index()]` is the shared physical site id the node sits
    /// on, or `None` for nodes that are not candidate buffer positions.
    pub site_of: Vec<Option<u32>>,
}

/// Specification of a deterministic shared-site fleet.
///
/// Net `i` is a 2-pin line with `sites_per_net` candidate positions whose
/// length is `base_length · (1 + length_jitter · u_i)` for a seeded
/// `u_i ∈ [−1, 1)`, and whose sites map to the shared ids
/// `(start_i + j) mod pool_sites` for a seeded window start `start_i`.
/// Everything derives from `seed` via SplitMix64, so the same spec always
/// builds the same fleet on every platform.
#[derive(Clone, Debug, PartialEq)]
pub struct SharedSuiteSpec {
    /// Number of nets in the fleet.
    pub nets: usize,
    /// Size of the shared physical site pool; ids are `0..pool_sites`.
    pub pool_sites: u32,
    /// Candidate buffer positions per net (each maps to a shared id).
    pub sites_per_net: usize,
    /// Nominal line length per net.
    pub base_length: Microns,
    /// Fractional per-net length jitter in `[0, 1)`; distinct lengths give
    /// distinct buffering benefits, which is what lets a price separate
    /// two nets contending for one site.
    pub length_jitter: f64,
    /// Sink required arrival time for every net.
    pub required_arrival: Seconds,
    /// Master seed.
    pub seed: u64,
}

impl Default for SharedSuiteSpec {
    /// Eight 9–15 mm lines with 8 candidate sites each over a pool of 24
    /// shared ids. The windows overlap *partially* — every site is shared
    /// by some nets but no net sees the whole pool — so unpriced solves
    /// collide under small capacities while a price change only dirties
    /// the nets whose windows cover the re-priced site (which is what
    /// makes warm per-net caches worth having).
    fn default() -> Self {
        SharedSuiteSpec {
            nets: 8,
            pool_sites: 24,
            sites_per_net: 8,
            base_length: Microns::new(12_000.0),
            length_jitter: 0.25,
            required_arrival: Seconds::from_pico(2000.0),
            seed: 1,
        }
    }
}

/// SplitMix64 — the same mixer `heavy_tailed_sinks` uses.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from a seed.
fn unit(seed: u64) -> f64 {
    (mix(seed) >> 11) as f64 / (1u64 << 53) as f64
}

impl SharedSuiteSpec {
    /// Builds net `i` of the fleet.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.nets` or the spec is degenerate
    /// (`pool_sites == 0`, `sites_per_net == 0`, a non-positive
    /// `base_length`, or `length_jitter` outside `[0, 1)`).
    pub fn build_net(&self, i: usize) -> SharedNet {
        assert!(i < self.nets, "net index {i} out of range ({})", self.nets);
        assert!(self.pool_sites > 0, "pool_sites must be positive");
        assert!(self.sites_per_net > 0, "sites_per_net must be positive");
        assert!(
            (0.0..1.0).contains(&self.length_jitter),
            "length_jitter must be in [0, 1)"
        );
        let per_net = self.seed.wrapping_add(i as u64);
        let u = 2.0 * unit(per_net) - 1.0; // [-1, 1)
        let length = self.base_length.value() * (1.0 + self.length_jitter * u);
        let tree = LineNetSpec {
            length: Microns::new(length),
            sites: self.sites_per_net,
            required_arrival: self.required_arrival,
            ..LineNetSpec::default()
        }
        .build();
        let start = (mix(per_net.wrapping_add(0x5EED)) % self.pool_sites as u64) as u32;
        let mut site_of = vec![None; tree.node_count()];
        for (j, node) in tree.buffer_sites().enumerate() {
            site_of[node.index()] = Some((start + j as u32) % self.pool_sites);
        }
        SharedNet { tree, site_of }
    }

    /// Builds the whole fleet, in index order.
    ///
    /// # Panics
    ///
    /// Panics if `nets == 0` or the spec is degenerate (see
    /// [`SharedSuiteSpec::build_net`]).
    pub fn build(&self) -> Vec<SharedNet> {
        assert!(self.nets > 0, "a fleet needs at least one net");
        (0..self.nets).map(|i| self.build_net(i)).collect()
    }
}

/// Parses a site-capacity file: one `site <id> <capacity>` entry per line,
/// `#` comments and blank lines ignored. Returns neutral `(site, capacity)`
/// pairs — the capacity *map* type lives in `fastbuf-global`, which
/// depends on this crate and not vice versa.
///
/// # Errors
///
/// A [`LineError`] naming the 1-based line of the first malformed line
/// (unknown keyword, missing or unparsable fields, duplicate site id).
pub fn parse_capacity(text: &str) -> Result<Vec<(u32, u32)>, LineError> {
    let mut out: Vec<(u32, u32)> = Vec::new();
    let mut seen = HashSet::new();
    for mut fields in text::lines(text) {
        let keyword = fields.word("keyword")?;
        if keyword != "site" {
            return Err(fields.error(format!(
                "unknown keyword `{keyword}` (expected `site <id> <capacity>`)"
            )));
        }
        let id: u32 = fields.num("site id")?;
        let cap: u32 = fields.num("capacity")?;
        fields.end()?;
        if !seen.insert(id) {
            return Err(fields.error(format!("duplicate site id {id}")));
        }
        out.push((id, cap));
    }
    Ok(out)
}

/// Writes `(site, capacity)` pairs in the format [`parse_capacity`] reads.
pub fn write_capacity(pairs: &[(u32, u32)]) -> String {
    let mut out = String::from("# site capacities: site <id> <capacity>\n");
    for &(id, cap) in pairs {
        out.push_str(&format!("site {id} {cap}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_is_deterministic_and_well_mapped() {
        let spec = SharedSuiteSpec::default();
        let a = spec.build();
        let b = spec.build();
        assert_eq!(a.len(), spec.nets);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                fastbuf_rctree::io::write(&x.tree),
                fastbuf_rctree::io::write(&y.tree)
            );
            assert_eq!(x.site_of, y.site_of);
        }
        for net in &a {
            assert_eq!(net.site_of.len(), net.tree.node_count());
            for (idx, site) in net.site_of.iter().enumerate() {
                let node = fastbuf_rctree::NodeId::new(idx);
                match site {
                    Some(id) => {
                        assert!(*id < spec.pool_sites);
                        assert!(net.tree.is_buffer_site(node));
                    }
                    None => assert!(!net.tree.is_buffer_site(node)),
                }
            }
            assert_eq!(
                net.site_of.iter().flatten().count(),
                spec.sites_per_net,
                "every candidate position maps to a shared id"
            );
        }
    }

    #[test]
    fn fleets_overlap_on_the_pool() {
        // The whole point: multiple nets must reference the same ids.
        let spec = SharedSuiteSpec::default();
        let fleet = spec.build();
        let pool = spec.pool_sites as usize;
        let mut nets_on_site = vec![0u32; pool];
        for net in &fleet {
            let mut seen = vec![false; pool];
            for id in net.site_of.iter().flatten() {
                seen[*id as usize] = true;
            }
            for (id, s) in seen.iter().enumerate() {
                nets_on_site[id] += *s as u32;
            }
        }
        assert!(
            nets_on_site.iter().any(|&n| n >= 2),
            "no shared site is referenced by two nets: {nets_on_site:?}"
        );
    }

    #[test]
    fn lengths_are_jittered_per_net() {
        let spec = SharedSuiteSpec::default();
        let fleet = spec.build();
        let total_wire = |t: &RoutingTree| -> f64 {
            t.node_ids()
                .filter_map(|n| t.wire_to_parent(n))
                .map(|w| w.resistance().value())
                .sum()
        };
        let r0 = total_wire(&fleet[0].tree);
        assert!(
            fleet
                .iter()
                .any(|n| (total_wire(&n.tree) - r0).abs() > 1e-9),
            "jitter must differentiate net lengths"
        );
    }

    #[test]
    fn capacity_round_trips() {
        let pairs = vec![(0u32, 1u32), (3, 0), (7, 12)];
        let text = write_capacity(&pairs);
        assert_eq!(parse_capacity(&text).unwrap(), pairs);
        assert_eq!(parse_capacity("").unwrap(), vec![]);
        assert_eq!(
            parse_capacity("# nothing\n\n  site 4 2  # inline\n").unwrap(),
            vec![(4, 2)]
        );
    }

    #[test]
    fn capacity_errors_carry_line_numbers() {
        for (text, line, needle) in [
            ("cap 1 2", 1, "unknown keyword `cap`"),
            ("site 1 2\nsite", 2, "missing site id"),
            ("site 9", 1, "missing capacity"),
            ("site x 2", 1, "bad site id"),
            ("site 1 y", 1, "bad capacity"),
            ("site 1 2 3", 1, "unexpected trailing token `3`"),
            ("site 1 2\nsite 1 5", 2, "duplicate site id 1"),
        ] {
            let err = parse_capacity(text).unwrap_err();
            assert_eq!(err.line, line, "{text:?}: {err}");
            assert!(err.message.contains(needle), "{text:?}: {err}");
        }
        assert_eq!(
            parse_capacity("site 1 2\nsite 1 5")
                .unwrap_err()
                .to_string(),
            "line 2: duplicate site id 1"
        );
    }

    #[test]
    fn capacity_duplicate_late_in_a_large_file_names_its_line() {
        let mut pairs: Vec<(u32, u32)> = (0..100_000).map(|id| (id, id % 7)).collect();
        pairs.push((31_337, 1));
        // Line 1 is write_capacity's header comment.
        let err = parse_capacity(&write_capacity(&pairs)).unwrap_err();
        assert_eq!(err, LineError::at(100_002, "duplicate site id 31337"));
    }
}
