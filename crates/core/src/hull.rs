//! Convex pruning — the geometric heart of the O(bn²) algorithm.
//!
//! View each candidate as the point `(C, Q)` in the plane. The paper's
//! *convex pruning* (its Eq. (2) and `Convexpruning` function) removes every
//! candidate lying on or below the segment between its neighbours, leaving
//! the **upper convex hull**: the sequence with strictly decreasing slopes
//!
//! ```text
//! (Q₂−Q₁)/(C₂−C₁) > (Q₃−Q₂)/(C₃−C₂) > ...
//! ```
//!
//! Three facts make this useful (Lemmas 1, 3 and 4 of the paper):
//!
//! * the candidate maximizing the buffered slack `Q − R·C` for **any**
//!   resistance `R` lies on the hull (a linear functional is maximized at a
//!   vertex);
//! * along the hull, `Q − R·C` is unimodal, so a local maximum is global;
//! * as `R` decreases, the maximizing vertex moves toward larger `C`.
//!
//! Together they let `AddBuffer` find the best candidate for all `b` buffer
//! types with one O(k) hull construction (Graham's scan over the already
//! sorted list — Lemma 2) plus one O(k + b) monotone walk, instead of the
//! O(k·b) full scans of Lillis, Cheng & Lin.

/// The paper's Eq. (2) predicate on raw coordinates: `true` when the
/// middle point `(q2, c2)` must be pruned, i.e. when
/// `slope(1→2) ≤ slope(2→3)` and the point therefore lies on or below the
/// chord from `(q1, c1)` to `(q3, c3)`.
///
/// Written with cross-multiplication so no division is involved; the inputs
/// must satisfy `c1 < c2 < c3` (or at least be non-decreasing in `c`).
#[inline]
pub(crate) fn prunes_middle_vals(q1: f64, c1: f64, q2: f64, c2: f64, q3: f64, c3: f64) -> bool {
    (q2 - q1) * (c3 - c2) <= (q3 - q2) * (c2 - c1)
}

/// Appends the indices of the upper-hull vertices of the candidates held
/// as `q`/`c` columns to `hull` (cleared first). Graham's scan on the
/// pre-sorted list, O(k), with the top two hull vertices carried in
/// registers so the common no-pop iteration does no indirect `hull[...]`
/// loads.
///
/// The first candidate (minimum `C`) and the last (maximum `Q`) are always
/// kept, matching the paper's `N'(T)` which anchors the hull at the
/// minimum-capacitance candidate.
pub(crate) fn upper_hull_cols(qs: &[f64], cs: &[f64], hull: &mut Vec<u32>) {
    debug_assert_eq!(qs.len(), cs.len());
    hull.clear();
    let n = qs.len();
    if n == 0 {
        return;
    }
    hull.push(0);
    // (q1, c1) is the vertex below the top — meaningful once len >= 2.
    let (mut q1, mut c1) = (0.0f64, 0.0f64);
    let (mut q2, mut c2) = (qs[0], cs[0]);
    for i in 1..n {
        let (q3, c3) = (qs[i], cs[i]);
        while hull.len() >= 2 && prunes_middle_vals(q1, c1, q2, c2, q3, c3) {
            hull.pop();
            q2 = q1;
            c2 = c1;
            if hull.len() >= 2 {
                let i1 = hull[hull.len() - 2] as usize;
                q1 = qs[i1];
                c1 = cs[i1];
            }
        }
        hull.push(i as u32);
        (q1, c1) = (q2, c2);
        (q2, c2) = (q3, c3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::PredRef;
    use crate::oracle::{upper_hull_into, CandidateList};
    use crate::Candidate;

    /// The column scan picks exactly the oracle's hull, on staircases with
    /// interior, collinear and hull points alike.
    #[test]
    fn upper_hull_cols_matches_the_oracle() {
        let mut state = 0x12345678u64;
        let mut rnd = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 60) as f64
        };
        for n in 0..40 {
            let (mut q, mut c) = (0.0, 0.0);
            let cands: Vec<Candidate> = (0..n)
                .map(|_| {
                    q += 1.0 + rnd();
                    c += 1.0 + rnd();
                    Candidate::new(q, c, PredRef::NONE)
                })
                .collect();
            let list = CandidateList::from_sorted(cands);
            let (qs, cs): (Vec<f64>, Vec<f64>) = list.iter().map(|x| (x.q, x.c)).unzip();
            let (mut want, mut got) = (Vec::new(), vec![7u32]);
            upper_hull_into(list.as_slice(), &mut want);
            upper_hull_cols(&qs, &cs, &mut got);
            assert_eq!(got, want, "n {n}");
        }
    }
}
