//! Task graph description: static tasks and precedence edges.

use std::sync::Arc;

type TaskFn<'env> = Box<dyn Fn() + Send + Sync + 'env>;

pub(crate) struct Node<'env> {
    pub(crate) name: Arc<str>,
    /// The task body; `None` is a pure synchronization point (the
    /// paper's `sync` task before matrix–vector partitions).
    pub(crate) work: Option<TaskFn<'env>>,
    pub(crate) succs: Vec<usize>,
    pub(crate) num_preds: usize,
}

/// Handle to a task inside a [`Taskflow`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TaskRef(pub(crate) usize);

/// A reusable task graph. Closures may borrow from the environment
/// (`'env`); [`crate::Executor::run`] blocks until completion, which keeps
/// those borrows alive for exactly as long as tasks may run.
pub struct Taskflow<'env> {
    pub(crate) name: String,
    pub(crate) nodes: Vec<Node<'env>>,
}

impl<'env> Taskflow<'env> {
    /// Creates an empty graph.
    pub fn new(name: impl Into<String>) -> Self {
        Taskflow {
            name: name.into(),
            nodes: Vec::new(),
        }
    }

    /// Creates an empty graph with room for `cap` tasks — code that
    /// rebuilds a similar graph every round passes the previous round's
    /// [`Taskflow::len`] to allocate the node storage once.
    pub fn with_capacity(name: impl Into<String>, cap: usize) -> Self {
        Taskflow {
            name: name.into(),
            nodes: Vec::with_capacity(cap),
        }
    }

    /// Graph name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, name: impl Into<Arc<str>>, work: Option<TaskFn<'env>>) -> TaskRef {
        let idx = self.nodes.len();
        self.nodes.push(Node {
            name: name.into(),
            work,
            succs: Vec::new(),
            num_preds: 0,
        });
        TaskRef(idx)
    }

    /// Adds an empty task — a pure synchronization point.
    pub fn emplace_empty(&mut self, name: impl Into<Arc<str>>) -> TaskRef {
        self.push(name, None)
    }

    /// Adds a static task.
    pub fn emplace(
        &mut self,
        name: impl Into<Arc<str>>,
        f: impl Fn() + Send + Sync + 'env,
    ) -> TaskRef {
        self.push(name, Some(Box::new(f)))
    }

    /// Declares that `before` must complete before `after` starts.
    ///
    /// # Panics
    /// Panics on self-edges or out-of-range handles.
    pub fn precede(&mut self, before: TaskRef, after: TaskRef) {
        assert_ne!(before, after, "self-edge in task graph");
        assert!(before.0 < self.nodes.len() && after.0 < self.nodes.len());
        self.nodes[before.0].succs.push(after.0);
        self.nodes[after.0].num_preds += 1;
    }

    /// Checks the graph for cycles (diagnostic; execution assumes a DAG).
    pub fn is_acyclic(&self) -> bool {
        let n = self.nodes.len();
        let mut indeg: Vec<usize> = self.nodes.iter().map(|x| x.num_preds).collect();
        let mut stack: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(i) = stack.pop() {
            seen += 1;
            for &s in &self.nodes[i].succs {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    stack.push(s);
                }
            }
        }
        seen == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_graph_shape() {
        let mut tf = Taskflow::new("t");
        let a = tf.emplace("a", || {});
        let b = tf.emplace_empty("sync");
        let c = tf.emplace("c", || {});
        tf.precede(a, b);
        tf.precede(b, c);
        assert_eq!(tf.name(), "t");
        assert_eq!(tf.len(), 3);
        assert!(tf.nodes[1].work.is_none());
        assert_eq!(tf.nodes[0].succs, vec![1]);
        assert_eq!(tf.nodes[2].num_preds, 1);
        assert!(tf.is_acyclic());
    }

    #[test]
    fn cycle_detection() {
        let mut tf = Taskflow::new("t");
        let a = tf.emplace("a", || {});
        let b = tf.emplace("b", || {});
        tf.precede(a, b);
        tf.precede(b, a);
        assert!(!tf.is_acyclic());
    }

    #[test]
    #[should_panic]
    fn self_edge_panics() {
        let mut tf = Taskflow::new("t");
        let a = tf.emplace("a", || {});
        tf.precede(a, a);
    }
}
