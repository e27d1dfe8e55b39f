//! OpenQASM 2.0 front-end (the QASMBench input format).
//!
//! A lexer + recursive-descent parser for the OpenQASM 2.0 subset that
//! QASMBench exercises: `qreg`/`creg`, user `gate` definitions (expanded
//! recursively at lowering time), parameter expressions over `pi` with
//! `+ - * / ^` and the standard functions, register broadcasting,
//! `barrier`, and `measure`/`reset` (recorded but ignored by the
//! state-vector engines). `include "qelib1.inc";` is satisfied by the
//! built-in gate set of [`qtask_gates::GateKind`].
//!
//! Lowering produces a levelized [`qtask_circuit::Circuit`] — one net per
//! level, the convention the paper uses for QASMBench. [`writer`] renders
//! circuits back to QASM, which doubles as the workspace's persistence
//! format.

#![forbid(unsafe_code)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod writer;

pub use error::QasmError;
pub use lower::parse_to_circuit;
pub use writer::circuit_to_qasm;

/// Parses OpenQASM 2.0 source into an AST program.
pub fn parse_program(src: &str) -> Result<ast::Program, QasmError> {
    parser::Parser::new(src)?.parse_program()
}
