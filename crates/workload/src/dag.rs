//! DAG-structured jobs (§III-C): each job is a directed acyclic graph of
//! tasks with spatial and temporal dependence; edges carry data-transfer
//! sizes for the network model.

use std::fmt;

use holdcsim_des::time::SimDuration;

/// One task's resource requirements within a job.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Nominal execution time on a core at the nominal frequency
    /// (the paper's w_v^j).
    pub service: SimDuration,
    /// Compute intensiveness α ∈ `[0, 1]`: the fraction of service time that
    /// scales with core frequency (1 = fully compute-bound).
    pub intensity: f64,
    /// Optional server-class constraint (e.g. "database tier"); the global
    /// scheduler maps classes to eligible servers.
    pub server_class: Option<u32>,
}

impl TaskSpec {
    /// A fully compute-bound task with no placement constraint.
    pub fn compute(service: SimDuration) -> Self {
        TaskSpec {
            service,
            intensity: 1.0,
            server_class: None,
        }
    }
}

/// A dependency edge: `from` must finish and its `bytes` of results must be
/// transferred before `to` may start (the paper's D_l^j).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DagEdge {
    /// Producer task index.
    pub from: u32,
    /// Consumer task index.
    pub to: u32,
    /// Result size to move over the network, in bytes (0 = control-only
    /// dependency, no network traffic).
    pub bytes: u64,
}

/// Errors from [`JobDagBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildDagError {
    /// The job has no tasks.
    Empty,
    /// An edge references a task index that does not exist.
    EdgeOutOfRange {
        /// The offending edge.
        edge: (u32, u32),
    },
    /// An edge connects a task to itself.
    SelfLoop {
        /// The task with the self-loop.
        task: u32,
    },
    /// The edges form a cycle.
    Cyclic,
}

impl fmt::Display for BuildDagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildDagError::Empty => write!(f, "job has no tasks"),
            BuildDagError::EdgeOutOfRange { edge } => {
                write!(f, "edge ({}, {}) references a missing task", edge.0, edge.1)
            }
            BuildDagError::SelfLoop { task } => write!(f, "task {task} depends on itself"),
            BuildDagError::Cyclic => write!(f, "task dependencies form a cycle"),
        }
    }
}

impl std::error::Error for BuildDagError {}

/// A validated job DAG: tasks plus acyclic dependency edges, with
/// precomputed adjacency for the simulator's hot path.
///
/// # Examples
///
/// ```
/// use holdcsim_workload::dag::{JobDag, TaskSpec};
/// use holdcsim_des::time::SimDuration;
///
/// # fn main() -> Result<(), holdcsim_workload::dag::BuildDagError> {
/// // A two-tier web request: app server task feeding a DB task.
/// let dag = JobDag::builder()
///     .task(TaskSpec::compute(SimDuration::from_millis(2)))
///     .task(TaskSpec::compute(SimDuration::from_millis(6)))
///     .edge(0, 1, 16 * 1024)
///     .build()?;
/// assert_eq!(dag.len(), 2);
/// assert_eq!(dag.roots(), &[0]);
/// assert_eq!(dag.successors(0).len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct JobDag {
    tasks: Vec<TaskSpec>,
    edges: Vec<DagEdge>,
    successors: Vec<Vec<u32>>,
    predecessors: Vec<Vec<u32>>,
    roots: Vec<u32>,
    topo_order: Vec<u32>,
}

impl JobDag {
    /// Starts building a DAG.
    pub fn builder() -> JobDagBuilder {
        JobDagBuilder {
            tasks: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// A single-task job (the common case for Fig. 4/5/6 studies).
    pub fn single(task: TaskSpec) -> Self {
        JobDag {
            tasks: vec![task],
            edges: Vec::new(),
            successors: vec![Vec::new()],
            predecessors: vec![Vec::new()],
            roots: vec![0],
            topo_order: vec![0],
        }
    }

    /// Rebuilds this DAG in place as a single-task job, reusing the
    /// existing allocations (the simulator's job-recycling hot path).
    pub fn reset_single(&mut self, task: TaskSpec) {
        self.tasks.clear();
        self.tasks.push(task);
        self.edges.clear();
        self.successors.clear();
        self.successors.push(Vec::new());
        self.predecessors.clear();
        self.predecessors.push(Vec::new());
        self.roots.clear();
        self.roots.push(0);
        self.topo_order.clear();
        self.topo_order.push(0);
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` if the job has no tasks (never true for built DAGs).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The spec of task `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn task(&self, index: u32) -> &TaskSpec {
        &self.tasks[index as usize]
    }

    /// All dependency edges.
    pub fn edges(&self) -> &[DagEdge] {
        &self.edges
    }

    /// Tasks with no predecessors (ready at job arrival).
    pub fn roots(&self) -> &[u32] {
        &self.roots
    }

    /// Direct successors of task `index`.
    pub fn successors(&self, index: u32) -> &[u32] {
        &self.successors[index as usize]
    }

    /// Direct predecessors of task `index`.
    pub fn predecessors(&self, index: u32) -> &[u32] {
        &self.predecessors[index as usize]
    }

    /// The data size on edge `from → to`, if such an edge exists.
    pub fn edge_bytes(&self, from: u32, to: u32) -> Option<u64> {
        self.edges
            .iter()
            .find(|e| e.from == from && e.to == to)
            .map(|e| e.bytes)
    }

    /// Critical-path length through the DAG counting service times only
    /// (ignores network transfer time).
    pub fn critical_path(&self) -> SimDuration {
        let mut finish = vec![SimDuration::ZERO; self.tasks.len()];
        for &i in &self.topo_order {
            let start = self.predecessors[i as usize]
                .iter()
                .map(|&p| finish[p as usize])
                .max()
                .unwrap_or(SimDuration::ZERO);
            finish[i as usize] = start + self.tasks[i as usize].service;
        }
        finish.into_iter().max().unwrap_or(SimDuration::ZERO)
    }
}

/// Builder for [`JobDag`]; validates on [`build`](Self::build).
#[derive(Debug, Clone, Default)]
pub struct JobDagBuilder {
    tasks: Vec<TaskSpec>,
    edges: Vec<DagEdge>,
}

impl JobDagBuilder {
    /// Appends a task, returning the builder.
    pub fn task(mut self, spec: TaskSpec) -> Self {
        self.tasks.push(spec);
        self
    }

    /// Appends a dependency edge `from → to` carrying `bytes` of results.
    pub fn edge(mut self, from: u32, to: u32, bytes: u64) -> Self {
        self.edges.push(DagEdge { from, to, bytes });
        self
    }

    /// Validates and builds the DAG.
    ///
    /// # Errors
    ///
    /// Returns [`BuildDagError`] if the job is empty, an edge is out of
    /// range or a self-loop, or the dependencies contain a cycle.
    pub fn build(self) -> Result<JobDag, BuildDagError> {
        let n = self.tasks.len();
        if n == 0 {
            return Err(BuildDagError::Empty);
        }
        let mut successors = vec![Vec::new(); n];
        let mut predecessors = vec![Vec::new(); n];
        for e in &self.edges {
            if e.from as usize >= n || e.to as usize >= n {
                return Err(BuildDagError::EdgeOutOfRange {
                    edge: (e.from, e.to),
                });
            }
            if e.from == e.to {
                return Err(BuildDagError::SelfLoop { task: e.from });
            }
            successors[e.from as usize].push(e.to);
            predecessors[e.to as usize].push(e.from);
        }
        // Kahn's algorithm: topological sort doubling as cycle detection.
        let mut in_deg: Vec<u32> = predecessors.iter().map(|p| p.len() as u32).collect();
        let mut ready: Vec<u32> = (0..n as u32).filter(|&i| in_deg[i as usize] == 0).collect();
        let roots = ready.clone();
        let mut topo = Vec::with_capacity(n);
        let mut head = 0;
        while head < ready.len() {
            let i = ready[head];
            head += 1;
            topo.push(i);
            for &s in &successors[i as usize] {
                in_deg[s as usize] -= 1;
                if in_deg[s as usize] == 0 {
                    ready.push(s);
                }
            }
        }
        if topo.len() != n {
            return Err(BuildDagError::Cyclic);
        }
        Ok(JobDag {
            tasks: self.tasks,
            edges: self.edges,
            successors,
            predecessors,
            roots,
            topo_order: topo,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> TaskSpec {
        TaskSpec::compute(SimDuration::from_millis(ms))
    }

    #[test]
    fn single_task_dag() {
        let dag = JobDag::single(t(5));
        assert_eq!(dag.len(), 1);
        assert_eq!(dag.roots(), &[0]);
        assert_eq!(dag.critical_path(), SimDuration::from_millis(5));
    }

    #[test]
    fn chain_has_one_root_and_linear_critical_path() {
        let dag = JobDag::builder()
            .task(t(1))
            .task(t(2))
            .task(t(3))
            .edge(0, 1, 10)
            .edge(1, 2, 10)
            .build()
            .unwrap();
        assert_eq!(dag.roots(), &[0]);
        assert_eq!(dag.critical_path(), SimDuration::from_millis(6));
        assert_eq!(dag.topo_order, [0, 1, 2]);
    }

    #[test]
    fn fan_out_fan_in_critical_path_takes_longest_branch() {
        // 0 -> {1 (2ms), 2 (9ms)} -> 3
        let dag = JobDag::builder()
            .task(t(1))
            .task(t(2))
            .task(t(9))
            .task(t(1))
            .edge(0, 1, 0)
            .edge(0, 2, 0)
            .edge(1, 3, 0)
            .edge(2, 3, 0)
            .build()
            .unwrap();
        assert_eq!(dag.critical_path(), SimDuration::from_millis(11));
        let in_degrees: Vec<usize> = (0..4).map(|i| dag.predecessors(i).len()).collect();
        assert_eq!(in_degrees, [0, 1, 1, 2]);
        assert_eq!(dag.successors(0), &[1, 2]);
        assert_eq!(dag.predecessors(3), &[1, 2]);
    }

    #[test]
    fn cycle_is_rejected() {
        let err = JobDag::builder()
            .task(t(1))
            .task(t(1))
            .edge(0, 1, 0)
            .edge(1, 0, 0)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildDagError::Cyclic);
    }

    #[test]
    fn self_loop_is_rejected() {
        let err = JobDag::builder()
            .task(t(1))
            .edge(0, 0, 0)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildDagError::SelfLoop { task: 0 });
    }

    #[test]
    fn out_of_range_edge_is_rejected() {
        let err = JobDag::builder()
            .task(t(1))
            .edge(0, 5, 0)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildDagError::EdgeOutOfRange { edge: (0, 5) });
    }

    #[test]
    fn empty_job_is_rejected() {
        assert_eq!(JobDag::builder().build().unwrap_err(), BuildDagError::Empty);
    }

    #[test]
    fn edge_bytes_lookup() {
        let dag = JobDag::builder()
            .task(t(1))
            .task(t(1))
            .edge(0, 1, 1234)
            .build()
            .unwrap();
        assert_eq!(dag.edge_bytes(0, 1), Some(1234));
        assert_eq!(dag.edge_bytes(1, 0), None);
    }

    #[test]
    fn error_display_is_lowercase_prose() {
        assert_eq!(
            BuildDagError::Cyclic.to_string(),
            "task dependencies form a cycle"
        );
    }
}
