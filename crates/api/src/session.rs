//! The shared solve context.

use std::sync::{Arc, Mutex};

use fastbuf_buflib::{BufferLibrary, Technology};
use fastbuf_core::{SolveWorkspace, SolverOptions};
use fastbuf_rctree::{DelayModel, RoutingTree};

use crate::request::SolveRequest;
use crate::scenario::Scenario;

/// The immutable shared context every solve needs: the buffer library, the
/// interconnect technology, the default delay model, and a pool of
/// reusable [`SolveWorkspace`]s.
///
/// A `Session` is cheap to clone (one `Arc` bump) and safe to share across
/// threads; clones share the workspace pool, so warm workspaces are reused
/// wherever the next request runs. Create one per library/technology pair
/// and issue [`SolveRequest`]s from it:
///
/// ```
/// use fastbuf_api::Session;
/// use fastbuf_buflib::units::Microns;
/// use fastbuf_buflib::BufferLibrary;
///
/// let session = Session::new(BufferLibrary::paper_synthetic(8)?);
/// let tree = fastbuf_netgen::line_net(Microns::new(10_000.0), 9);
/// let outcome = session.request(&tree).solve()?;
/// let solution = outcome.solution().expect("max-slack objective");
/// assert!(!solution.placements.is_empty());
/// outcome.verify(&tree, session.library())?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Session {
    inner: Arc<SessionInner>,
}

#[derive(Debug)]
struct SessionInner {
    library: BufferLibrary,
    technology: Technology,
    delay_model: DelayModel,
    workspaces: Mutex<Vec<SolveWorkspace>>,
}

impl Session {
    /// A session over `library` with the default technology
    /// ([`Technology::tsmc180_like`]) and delay model
    /// ([`DelayModel::Elmore`]).
    pub fn new(library: BufferLibrary) -> Self {
        Session::builder(library).build()
    }

    /// Starts configuring a session.
    pub fn builder(library: BufferLibrary) -> SessionBuilder {
        SessionBuilder {
            library,
            technology: Technology::tsmc180_like(),
            delay_model: DelayModel::Elmore,
        }
    }

    /// The shared buffer library.
    pub fn library(&self) -> &BufferLibrary {
        &self.inner.library
    }

    /// The interconnect technology (per-micron wire parasitics) this
    /// session's nets are built against.
    ///
    /// This is *carried context* for code that constructs or segments
    /// wires around the session (`Wire::from_length(session.technology(),
    /// ..)`) — solves never read it, because a built
    /// [`RoutingTree`](fastbuf_rctree::RoutingTree)'s wires already carry
    /// their parasitics. Changing it does not change any solve result.
    pub fn technology(&self) -> &Technology {
        &self.inner.technology
    }

    /// The default delay model — used by every scenario that does not
    /// override it.
    pub fn delay_model(&self) -> DelayModel {
        self.inner.delay_model
    }

    /// The solver options of `scenario`: its algorithm, slew limit and RAT
    /// derate, and its delay model or else the session default.
    pub(crate) fn options(&self, scenario: &Scenario) -> SolverOptions {
        let mut options = SolverOptions::default();
        options.algorithm = scenario.algorithm.unwrap_or_default();
        options.delay_model = scenario.delay_model.unwrap_or(self.delay_model());
        options.slew_limit = scenario.slew_limit;
        options.rat_derate = scenario.rat_derate;
        options
    }

    /// Starts a solve request for one net. The returned builder borrows
    /// both the session and the tree; finish with
    /// [`SolveRequest::solve`](crate::SolveRequest::solve).
    pub fn request<'a>(&'a self, tree: &'a RoutingTree) -> SolveRequest<'a> {
        SolveRequest::new(self, tree)
    }

    /// Number of idle workspaces currently pooled — a diagnostics hook;
    /// the pool grows to the largest number of concurrently-solving
    /// threads and is then reused by every later request.
    pub fn pooled_workspaces(&self) -> usize {
        self.inner
            .workspaces
            .lock()
            .expect("workspace pool lock is never poisoned")
            .len()
    }

    /// Checks a warm workspace out of the pool (or creates a fresh one).
    pub(crate) fn take_workspace(&self) -> SolveWorkspace {
        self.inner
            .workspaces
            .lock()
            .expect("workspace pool lock is never poisoned")
            .pop()
            .unwrap_or_default()
    }

    /// Returns a workspace to the pool for the next request.
    pub(crate) fn return_workspace(&self, workspace: SolveWorkspace) {
        self.inner
            .workspaces
            .lock()
            .expect("workspace pool lock is never poisoned")
            .push(workspace);
    }
}

/// Configures and builds a [`Session`].
#[derive(Debug)]
pub struct SessionBuilder {
    library: BufferLibrary,
    technology: Technology,
    delay_model: DelayModel,
}

impl SessionBuilder {
    /// Sets the interconnect technology carried by the session (context
    /// for wire construction — see [`Session::technology`]; solves never
    /// read it).
    #[must_use]
    pub fn technology(mut self, technology: Technology) -> Self {
        self.technology = technology;
        self
    }

    /// Sets the default delay model (scenarios may override per corner).
    #[must_use]
    pub fn delay_model(mut self, model: DelayModel) -> Self {
        self.delay_model = model;
        self
    }

    /// Builds the session.
    pub fn build(self) -> Session {
        Session {
            inner: Arc::new(SessionInner {
                library: self.library,
                technology: self.technology,
                delay_model: self.delay_model,
                workspaces: Mutex::new(Vec::new()),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_workspace_pool() {
        let session = Session::new(BufferLibrary::paper_synthetic(4).unwrap());
        let clone = session.clone();
        assert_eq!(session.pooled_workspaces(), 0);
        let ws = session.take_workspace();
        clone.return_workspace(ws);
        assert_eq!(session.pooled_workspaces(), 1);
        // Taking from either end drains the shared pool.
        let _ws = clone.take_workspace();
        assert_eq!(session.pooled_workspaces(), 0);
    }

    #[test]
    fn builder_overrides_stick() {
        let session = Session::builder(BufferLibrary::paper_synthetic(2).unwrap())
            .technology(Technology::new(
                fastbuf_buflib::units::Ohms::new(0.1),
                fastbuf_buflib::units::Farads::from_femto(0.2),
            ))
            .delay_model(DelayModel::SCALED_ELMORE)
            .build();
        assert_eq!(session.delay_model(), DelayModel::SCALED_ELMORE);
        assert_eq!(session.library().len(), 2);
        let (r, _) = session
            .technology()
            .wire(fastbuf_buflib::units::Microns::new(10.0));
        assert!((r.value() - 1.0).abs() < 1e-12);
    }
}
