//! Buffer-library selection by clustering.
//!
//! The paper motivates its O(bn²) algorithm by noting that the prior remedy
//! for very large libraries — reducing the library by clustering similar
//! buffers (Alpert, Gandham, Neves & Quay, *Buffer library selection*,
//! ICCD 2000, reference \[3\] of the paper) — degrades solution quality.
//! This module implements that remedy so the trade-off can be reproduced:
//! cluster a `b = 64` library down to `k = 8` and compare the achieved slack
//! against solving with the full library using the fast algorithm.
//!
//! The algorithm is deterministic k-medoids: features are
//! `(ln R, ln C, K)` standardized to zero mean / unit variance; seeding is
//! farthest-point traversal from the global medoid; refinement is Lloyd
//! iteration with medoid recentering.

use crate::buffer::BufferTypeId;
use crate::error::LibraryError;
use crate::library::BufferLibrary;

/// Outcome of clustering a library down to `k` representative types.
#[derive(Clone, Debug)]
pub struct ClusterResult {
    /// The reduced library containing one representative per cluster,
    /// ordered by non-increasing driving resistance.
    pub library: BufferLibrary,
    /// For each entry of `library`, the id of the original buffer type it
    /// was taken from.
    pub representatives: Vec<BufferTypeId>,
    /// For each original buffer type (by index), the index of the cluster it
    /// was assigned to (positions in `representatives`).
    pub assignment: Vec<usize>,
}

/// Clusters `lib` into `k` groups and returns a reduced library of medoid
/// representatives.
///
/// # Errors
///
/// Returns [`LibraryError::InvalidClusterCount`] unless `1 ≤ k ≤ lib.len()`.
///
/// # Example
///
/// ```
/// use fastbuf_buflib::BufferLibrary;
/// use fastbuf_buflib::cluster::cluster_library;
///
/// let full = BufferLibrary::paper_synthetic(64)?;
/// let reduced = cluster_library(&full, 8)?;
/// assert_eq!(reduced.library.len(), 8);
/// # Ok::<(), fastbuf_buflib::LibraryError>(())
/// ```
pub fn cluster_library(lib: &BufferLibrary, k: usize) -> Result<ClusterResult, LibraryError> {
    let n = lib.len();
    if k == 0 || k > n {
        return Err(LibraryError::InvalidClusterCount {
            requested: k,
            available: n,
        });
    }

    let features = standardized_features(lib);
    let dist = |a: usize, b: usize| -> f64 {
        features[a]
            .iter()
            .zip(&features[b])
            .map(|(x, y)| (x - y) * (x - y))
            .sum()
    };

    // Seed 1: the global medoid (minimizes total distance to all points).
    let mut medoids: Vec<usize> = Vec::with_capacity(k);
    let first = (0..n)
        .min_by(|&a, &b| {
            let sa: f64 = (0..n).map(|j| dist(a, j)).sum();
            let sb: f64 = (0..n).map(|j| dist(b, j)).sum();
            sa.total_cmp(&sb).then(a.cmp(&b))
        })
        .expect("library is non-empty");
    medoids.push(first);

    // Seeds 2..k: farthest-point traversal (deterministic).
    while medoids.len() < k {
        let next = (0..n)
            .filter(|i| !medoids.contains(i))
            .max_by(|&a, &b| {
                let da = medoids
                    .iter()
                    .map(|&m| dist(a, m))
                    .fold(f64::INFINITY, f64::min);
                let db = medoids
                    .iter()
                    .map(|&m| dist(b, m))
                    .fold(f64::INFINITY, f64::min);
                da.total_cmp(&db).then(b.cmp(&a))
            })
            .expect("fewer medoids than points");
        medoids.push(next);
    }

    // Lloyd iterations with medoid recentering.
    let mut assignment = vec![0usize; n];
    for _ in 0..32 {
        let mut changed = false;
        for (i, slot) in assignment.iter_mut().enumerate() {
            let best = (0..k)
                .min_by(|&a, &b| {
                    dist(i, medoids[a])
                        .total_cmp(&dist(i, medoids[b]))
                        .then(a.cmp(&b))
                })
                .unwrap();
            if *slot != best {
                *slot = best;
                changed = true;
            }
        }
        let mut new_medoids = medoids.clone();
        for (c, new_medoid) in new_medoids.iter_mut().enumerate() {
            let members: Vec<usize> = (0..n).filter(|&i| assignment[i] == c).collect();
            if members.is_empty() {
                continue;
            }
            *new_medoid = members
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    let sa: f64 = members.iter().map(|&j| dist(a, j)).sum();
                    let sb: f64 = members.iter().map(|&j| dist(b, j)).sum();
                    sa.total_cmp(&sb).then(a.cmp(&b))
                })
                .unwrap();
        }
        if new_medoids == medoids && !changed {
            break;
        }
        medoids = new_medoids;
    }

    // Order representatives by non-increasing resistance for readability.
    medoids.sort_by(|&a, &b| {
        let (ra, rb) = (
            lib.get(BufferTypeId::new(a)).driving_resistance(),
            lib.get(BufferTypeId::new(b)).driving_resistance(),
        );
        rb.value().total_cmp(&ra.value()).then(a.cmp(&b))
    });
    // Re-map assignments to the sorted representative order.
    let pos_of: Vec<usize> = {
        let mut inv = vec![0usize; n];
        for (pos, &m) in medoids.iter().enumerate() {
            inv[m] = pos;
        }
        inv
    };
    // Re-assign every point to its (possibly re-centered) nearest medoid so
    // assignment and medoid list are consistent after sorting.
    let mut final_assignment = vec![0usize; n];
    for (i, slot) in final_assignment.iter_mut().enumerate() {
        *slot = medoids
            .iter()
            .enumerate()
            .min_by(|(_, &ma), (_, &mb)| dist(i, ma).total_cmp(&dist(i, mb)))
            .map(|(pos, _)| pos)
            .unwrap();
        // Medoids always belong to their own cluster.
        if medoids.contains(&i) {
            *slot = pos_of[i];
        }
    }

    let representatives: Vec<BufferTypeId> =
        medoids.iter().map(|&m| BufferTypeId::new(m)).collect();
    let library = lib.subset(&representatives)?;
    Ok(ClusterResult {
        library,
        representatives,
        assignment: final_assignment,
    })
}

/// Standardized `(ln R, ln C, K)` feature vectors.
fn standardized_features(lib: &BufferLibrary) -> Vec<[f64; 3]> {
    let n = lib.len();
    let mut feats: Vec<[f64; 3]> = lib
        .iter()
        .map(|(_, b)| {
            [
                b.driving_resistance().value().ln(),
                // +1 aF floor avoids ln(0) for zero-capacitance test buffers.
                (b.input_capacitance().value() + 1e-18).ln(),
                b.intrinsic_delay().value(),
            ]
        })
        .collect();
    for d in 0..3 {
        let mean = feats.iter().map(|f| f[d]).sum::<f64>() / n as f64;
        let var = feats
            .iter()
            .map(|f| (f[d] - mean) * (f[d] - mean))
            .sum::<f64>()
            / n as f64;
        let sd = var.sqrt().max(1e-12);
        for f in &mut feats {
            f[d] = (f[d] - mean) / sd;
        }
    }
    feats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduces_to_requested_size() {
        let full = BufferLibrary::paper_synthetic(64).unwrap();
        let res = cluster_library(&full, 8).unwrap();
        assert_eq!(res.library.len(), 8);
        assert_eq!(res.representatives.len(), 8);
        assert_eq!(res.assignment.len(), 64);
    }

    #[test]
    fn k_equal_n_is_identity_sized() {
        let full = BufferLibrary::paper_synthetic(8).unwrap();
        let res = cluster_library(&full, 8).unwrap();
        assert_eq!(res.library.len(), 8);
        // Every point is its own medoid.
        let mut reps: Vec<usize> = res.representatives.iter().map(|r| r.index()).collect();
        reps.sort_unstable();
        assert_eq!(reps, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn k_one_selects_a_single_representative() {
        let full = BufferLibrary::paper_synthetic(16).unwrap();
        let res = cluster_library(&full, 1).unwrap();
        assert_eq!(res.library.len(), 1);
        assert!(res.assignment.iter().all(|&a| a == 0));
    }

    #[test]
    fn invalid_counts_rejected() {
        let full = BufferLibrary::paper_synthetic(4).unwrap();
        assert!(matches!(
            cluster_library(&full, 0),
            Err(LibraryError::InvalidClusterCount { .. })
        ));
        assert!(matches!(
            cluster_library(&full, 5),
            Err(LibraryError::InvalidClusterCount { .. })
        ));
    }

    #[test]
    fn medoids_assigned_to_own_cluster() {
        let full = BufferLibrary::paper_synthetic_jittered(32, 9).unwrap();
        let res = cluster_library(&full, 6).unwrap();
        for (pos, rep) in res.representatives.iter().enumerate() {
            assert_eq!(res.assignment[rep.index()], pos);
        }
    }

    #[test]
    fn representatives_cover_strength_spectrum() {
        let full = BufferLibrary::paper_synthetic(64).unwrap();
        let res = cluster_library(&full, 8).unwrap();
        let rs: Vec<f64> = res
            .library
            .iter()
            .map(|(_, b)| b.driving_resistance().value())
            .collect();
        // Sorted non-increasing, spanning most of the original range.
        assert!(rs.windows(2).all(|w| w[0] >= w[1]));
        assert!(rs[0] > 3000.0, "weak end represented: {rs:?}");
        assert!(
            *rs.last().unwrap() < 400.0,
            "strong end represented: {rs:?}"
        );
    }

    #[test]
    fn deterministic() {
        let full = BufferLibrary::paper_synthetic_jittered(24, 3).unwrap();
        let a = cluster_library(&full, 5).unwrap();
        let b = cluster_library(&full, 5).unwrap();
        assert_eq!(a.representatives, b.representatives);
        assert_eq!(a.assignment, b.assignment);
    }
}
