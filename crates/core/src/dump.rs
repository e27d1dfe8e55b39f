//! `dump_graph` (Table II): DOT rendering of the partition task graph.
//!
//! The output mirrors the paper's Figures 4/7/8: one node per partition
//! labelled with its row and block range (`G8[2,3]`), `sync` nodes drawn
//! as diamonds, MxV partitions as ellipses and multi-task linear
//! partitions as boxes (they execute as joined chunk fans, like the `G6`
//! subflow in Figure 12).

use crate::engine::Ckt;
use crate::row::RowKind;
use std::io::{self, Write};

impl Ckt {
    /// Writes the current partition graph in DOT format.
    pub fn dump_graph<W: Write>(&self, out: &mut W) -> io::Result<()> {
        writeln!(out, "digraph partitions {{")?;
        writeln!(out, "  rankdir=LR;")?;
        writeln!(out, "  node [fontsize=10];")?;
        let chunk = self.geom.grain() as u64;
        for (pid, part) in self.graph.iter() {
            let row = &self.rows[part.row.key()];
            let shape = match row.kind {
                RowKind::Sync => "diamond",
                RowKind::MxV => "ellipse",
                RowKind::Linear(_) => {
                    if part.spec.num_tasks(chunk) > 1 {
                        "box"
                    } else {
                        "ellipse"
                    }
                }
            };
            writeln!(
                out,
                "  p{} [label=\"{}[{},{}]\" shape={}];",
                pid.key().index(),
                row.label,
                part.spec.block_lo,
                part.spec.block_hi,
                shape
            )?;
        }
        for (pid, _) in self.graph.iter() {
            for s in self.graph.succs(pid) {
                writeln!(out, "  p{} -> p{};", pid.key().index(), s.key().index())?;
            }
        }
        writeln!(out, "}}")
    }

    /// Renders [`Ckt::dump_graph`] to a string.
    pub fn dump_graph_string(&self) -> String {
        let mut buf = Vec::new();
        self.dump_graph(&mut buf).expect("write to Vec cannot fail");
        String::from_utf8(buf).expect("DOT output is UTF-8")
    }
}
