use std::collections::HashMap;
use std::f64::consts::{FRAC_PI_2, PI};

use sabre_circuit::{Circuit, Gate, OneQubitKind, Params, Qubit, TwoQubitKind};

use crate::lexer::{Lexer, Token, TokenKind};
use crate::QasmError;

/// Result of parsing a full OpenQASM program, including what was skipped.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedProgram {
    /// The unitary part of the program.
    pub circuit: Circuit,
    /// Quantum registers in declaration order, as `(name, size)`; wires are
    /// flattened in this order.
    pub quantum_registers: Vec<(String, u32)>,
    /// Number of `barrier` statements dropped.
    pub skipped_barriers: usize,
    /// Number of `measure` statements dropped.
    pub skipped_measurements: usize,
}

/// Parses OpenQASM 2.0 source into a [`Circuit`].
///
/// See the [crate-level documentation](crate) for the supported subset.
///
/// # Errors
///
/// Returns a [`QasmError`] with source position for lexical errors, syntax
/// errors, unknown gates, references to undeclared registers or
/// out-of-range indices, and the statement that takes the program past
/// [`MAX_GATES`] gates.
pub fn parse(source: &str) -> Result<Circuit, QasmError> {
    parse_program(source).map(|p| p.circuit)
}

/// Parses OpenQASM 2.0 source, also reporting skipped non-unitary
/// statements and the register layout.
///
/// # Errors
///
/// Same conditions as [`parse`]. A lexical error anywhere in the source
/// takes precedence over a syntax error before it.
pub fn parse_program(source: &str) -> Result<ParsedProgram, QasmError> {
    let mut lexer = Lexer::new(source);
    let tok = lexer.next_token();
    let mut parser = Parser {
        lexer,
        tok,
        qregs: HashMap::new(),
        last_qreg: None,
        qreg_order: Vec::new(),
        num_qubits: 0,
        gates: Vec::new(),
        skipped_barriers: 0,
        skipped_measurements: 0,
    };
    let parsed = parser.program();
    if let Some(e) = parser.lexer.finish() {
        return Err(e);
    }
    parsed?;
    let circuit = Circuit::from_gates(parser.num_qubits, parser.gates)
        .map_err(|e| QasmError::new(0, 0, e.to_string()))?;
    Ok(ParsedProgram {
        circuit,
        quantum_registers: parser
            .qreg_order
            .into_iter()
            .map(|(name, size)| (name.to_string(), size))
            .collect(),
        skipped_barriers: parser.skipped_barriers,
        skipped_measurements: parser.skipped_measurements,
    })
}

/// A gate argument: either one wire or a whole register.
#[derive(Clone, Copy, Debug)]
enum Arg {
    Single(Qubit),
    /// `(offset, size)` of a register.
    Register(u32, u32),
}

/// Most gates one program may expand to. Register broadcast makes a
/// statement's gate count independent of its length (`h q;` on
/// `qreg q[4000000000];` is 4·10⁹ gates from 30 bytes), so the parser
/// checks this before expanding each statement, not after.
pub const MAX_GATES: usize = 1_000_000;

/// Most parameters and qubit arguments any supported gate takes.
const MAX_PARAMS: usize = 3;
const MAX_ARGS: usize = 2;

/// Recursive-descent parser over the streaming [`Lexer`], with one token
/// of lookahead. Names borrow from the source; a gate is parsed into
/// fixed-size buffers and pushed straight onto the gate list.
struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The lookahead token.
    tok: Token<'a>,
    /// name → (offset, size)
    qregs: HashMap<&'a str, (u32, u32)>,
    /// The register the previous argument named: programs mostly name
    /// one register, so this skips the hash on nearly every argument.
    last_qreg: Option<(&'a str, (u32, u32))>,
    qreg_order: Vec<(&'a str, u32)>,
    num_qubits: u32,
    gates: Vec<Gate>,
    skipped_barriers: usize,
    skipped_measurements: usize,
}

impl<'a> Parser<'a> {
    /// Consumes the lookahead token; at end of input it stays `Eof`.
    fn advance(&mut self) -> Token<'a> {
        let t = self.tok;
        if t.kind != TokenKind::Eof {
            self.tok = self.lexer.next_token();
        }
        t
    }

    fn error_here(&self, message: impl Into<String>) -> QasmError {
        QasmError::new(self.tok.line, self.tok.column, message)
    }

    fn expected(&self, what: &str) -> QasmError {
        self.error_here(format!(
            "expected {what}, found {}",
            self.tok.kind.describe()
        ))
    }

    fn expect(&mut self, kind: TokenKind<'_>) -> Result<(), QasmError> {
        if self.tok.kind == kind {
            self.advance();
            Ok(())
        } else {
            Err(self.expected(&kind.describe()))
        }
    }

    fn expect_ident(&mut self) -> Result<(&'a str, Token<'a>), QasmError> {
        match self.tok.kind {
            TokenKind::Ident(name) => Ok((name, self.advance())),
            _ => Err(self.expected("identifier")),
        }
    }

    fn expect_uint(&mut self) -> Result<u32, QasmError> {
        match self.tok.kind {
            TokenKind::Number(v) if v >= 0.0 && v.fract() == 0.0 && v <= u32::MAX as f64 => {
                self.advance();
                Ok(v as u32)
            }
            _ => Err(self.error_here("expected a non-negative integer")),
        }
    }

    // Float literal patterns are forbidden, so the version check keeps
    // its (clippy-"redundant") guard.
    #[allow(clippy::redundant_guards)]
    fn program(&mut self) -> Result<(), QasmError> {
        // Header: OPENQASM 2.0;
        self.expect(TokenKind::OpenQasm)?;
        match self.tok.kind {
            TokenKind::Number(v) if v == 2.0 => {
                self.advance();
            }
            _ => return Err(self.error_here("only OPENQASM 2.0 is supported")),
        }
        self.expect(TokenKind::Semicolon)?;

        while self.tok.kind != TokenKind::Eof {
            self.statement()?;
        }
        Ok(())
    }

    fn statement(&mut self) -> Result<(), QasmError> {
        let TokenKind::Ident(name) = self.tok.kind else {
            return Err(self.error_here(format!(
                "expected a statement, found {}",
                self.tok.kind.describe()
            )));
        };
        let tok = self.advance();
        // Gate names and statement keywords are disjoint; gates are the
        // common case, so they are looked up first.
        if let Some(spec) = GateSpec::lookup(name) {
            return self.gate_application(spec, name, tok);
        }
        match name {
            "include" => {
                // include "<file>"; — the only include benchmarks use is
                // qelib1.inc, whose gates are built in; contents ignored.
                match self.tok.kind {
                    TokenKind::Str(_) => {
                        self.advance();
                    }
                    _ => return Err(self.error_here("expected file name string after `include`")),
                }
                self.expect(TokenKind::Semicolon)?;
                Ok(())
            }
            "qreg" => {
                let (reg, _) = self.expect_ident()?;
                let size = self.register_size()?;
                if self.qregs.contains_key(reg) {
                    return Err(QasmError::new(
                        tok.line,
                        tok.column,
                        format!("quantum register `{reg}` already declared"),
                    ));
                }
                let Some(total) = self.num_qubits.checked_add(size) else {
                    return Err(QasmError::new(
                        tok.line,
                        tok.column,
                        format!("quantum register `{reg}` takes the program past 2^32 - 1 qubits"),
                    ));
                };
                self.qregs.insert(reg, (self.num_qubits, size));
                self.qreg_order.push((reg, size));
                self.num_qubits = total;
                Ok(())
            }
            "creg" => {
                // Classical registers only feed the skipped `measure`s.
                self.expect_ident()?;
                self.register_size()?;
                Ok(())
            }
            "barrier" => {
                // barrier <args>; — dropped: barriers only constrain
                // scheduling, not mapping.
                self.skip_to_semicolon()?;
                self.skipped_barriers += 1;
                Ok(())
            }
            "measure" => {
                self.skip_to_semicolon()?;
                self.skipped_measurements += 1;
                Ok(())
            }
            "gate" | "opaque" => Err(QasmError::new(
                tok.line,
                tok.column,
                "custom gate definitions are not supported; inline the body",
            )),
            "if" | "reset" => Err(QasmError::new(
                tok.line,
                tok.column,
                format!("`{name}` statements are not supported"),
            )),
            _ => Err(QasmError::new(
                tok.line,
                tok.column,
                format!("unknown gate `{name}`"),
            )),
        }
    }

    /// `[size];` closing a `qreg`/`creg` declaration.
    fn register_size(&mut self) -> Result<u32, QasmError> {
        self.expect(TokenKind::LBracket)?;
        let size = self.expect_uint()?;
        self.expect(TokenKind::RBracket)?;
        self.expect(TokenKind::Semicolon)?;
        Ok(size)
    }

    fn skip_to_semicolon(&mut self) -> Result<(), QasmError> {
        while self.tok.kind != TokenKind::Semicolon {
            if self.tok.kind == TokenKind::Eof {
                return Err(self.error_here("unexpected end of input; missing `;`"));
            }
            self.advance();
        }
        self.advance(); // consume `;`
        Ok(())
    }

    fn gate_application(
        &mut self,
        spec: GateSpec,
        name: &str,
        tok: Token<'a>,
    ) -> Result<(), QasmError> {
        // Optional parameter list. Every expression is parsed (so syntax
        // errors surface in source order) and counted; only the first
        // `MAX_PARAMS` values are kept, enough for any supported gate.
        let mut params = [0.0; MAX_PARAMS];
        let mut num_params = 0;
        if self.tok.kind == TokenKind::LParen {
            self.advance();
            if self.tok.kind != TokenKind::RParen {
                loop {
                    let start = self.tok;
                    let value = self.expression()?;
                    // `0/0` and `pi/0` evaluate, but no gate has a NaN or
                    // infinite angle (and NaN ≠ NaN would defeat the
                    // routed plan's proof), so reject them where written.
                    if !value.is_finite() {
                        return Err(QasmError::new(
                            start.line,
                            start.column,
                            "parameter expression is not a finite number",
                        ));
                    }
                    if let Some(slot) = params.get_mut(num_params) {
                        *slot = value;
                    }
                    num_params += 1;
                    if self.tok.kind == TokenKind::Comma {
                        self.advance();
                    } else {
                        break;
                    }
                }
            }
            self.expect(TokenKind::RParen)?;
        }
        if num_params != spec.num_params {
            return Err(QasmError::new(
                tok.line,
                tok.column,
                format!(
                    "gate `{name}` expects {} parameter(s), got {num_params}",
                    spec.num_params
                ),
            ));
        }

        // Argument list, bounded the same way.
        let mut args = [Arg::Register(0, 0); MAX_ARGS];
        let mut num_args = 0;
        loop {
            let arg = self.argument()?;
            if let Some(slot) = args.get_mut(num_args) {
                *slot = arg;
            }
            num_args += 1;
            if self.tok.kind == TokenKind::Comma {
                self.advance();
            } else {
                break;
            }
        }
        self.expect(TokenKind::Semicolon)?;
        if num_args != spec.num_qubits {
            return Err(QasmError::new(
                tok.line,
                tok.column,
                format!(
                    "gate `{name}` expects {} qubit argument(s), got {num_args}",
                    spec.num_qubits
                ),
            ));
        }

        self.emit(spec, &params[..num_params], &args[..num_args], tok)
    }

    fn argument(&mut self) -> Result<Arg, QasmError> {
        let (reg, tok) = self.expect_ident()?;
        let (offset, size) = match self.last_qreg {
            Some((last, range)) if last == reg => range,
            _ => {
                let &range = self.qregs.get(reg).ok_or_else(|| {
                    QasmError::new(
                        tok.line,
                        tok.column,
                        format!("undeclared quantum register `{reg}`"),
                    )
                })?;
                self.last_qreg = Some((reg, range));
                range
            }
        };
        if self.tok.kind == TokenKind::LBracket {
            self.advance();
            let index = self.expect_uint()?;
            self.expect(TokenKind::RBracket)?;
            if index >= size {
                return Err(QasmError::new(
                    tok.line,
                    tok.column,
                    format!("index {index} out of range for `{reg}[{size}]`"),
                ));
            }
            Ok(Arg::Single(Qubit(offset + index)))
        } else {
            Ok(Arg::Register(offset, size))
        }
    }

    fn emit(
        &mut self,
        spec: GateSpec,
        params: &[f64],
        args: &[Arg],
        tok: Token<'a>,
    ) -> Result<(), QasmError> {
        // The widest operand bounds the expansion (a size mismatch is
        // reported below, once the statement is known to fit).
        let widest = args.iter().fold(1, |widest, arg| match *arg {
            Arg::Single(_) => widest,
            Arg::Register(_, size) => widest.max(size as usize),
        });
        if self.gates.len().saturating_add(widest) > MAX_GATES {
            return Err(QasmError::new(
                tok.line,
                tok.column,
                format!("program expands to more than {MAX_GATES} gates"),
            ));
        }
        match *args {
            [Arg::Single(q)] => self.gates.push(spec.build_one(q, params)),
            [Arg::Register(offset, size)] => {
                for q in offset..offset + size {
                    self.gates.push(spec.build_one(Qubit(q), params));
                }
            }
            [a, b] => {
                // A register operand broadcasts over its wires; a single
                // wire pairs with each of them.
                let wires = |arg: Arg, i: u32| match arg {
                    Arg::Single(q) => q,
                    Arg::Register(offset, _) => Qubit(offset + i),
                };
                let len = match (a, b) {
                    (Arg::Single(_), Arg::Single(_)) => 1,
                    (Arg::Register(_, sa), Arg::Register(_, sb)) if sa != sb => {
                        return Err(QasmError::new(
                            tok.line,
                            tok.column,
                            format!("register size mismatch in broadcast: {sa} vs {sb}"),
                        ));
                    }
                    (Arg::Register(_, size), _) | (_, Arg::Register(_, size)) => size,
                };
                for i in 0..len {
                    let (qa, qb) = (wires(a, i), wires(b, i));
                    if qa == qb {
                        return Err(QasmError::new(
                            tok.line,
                            tok.column,
                            "two-qubit gate applied to the same wire twice",
                        ));
                    }
                    self.gates.push(spec.build_two(qa, qb, params));
                }
            }
            _ => unreachable!("gate arity validated before emit"),
        }
        Ok(())
    }

    /// expr := term (('+'|'-') term)*
    fn expression(&mut self) -> Result<f64, QasmError> {
        let mut value = self.term()?;
        loop {
            match self.tok.kind {
                TokenKind::Plus => {
                    self.advance();
                    value += self.term()?;
                }
                TokenKind::Minus => {
                    self.advance();
                    value -= self.term()?;
                }
                _ => return Ok(value),
            }
        }
    }

    /// term := factor (('*'|'/') factor)*
    fn term(&mut self) -> Result<f64, QasmError> {
        let mut value = self.factor()?;
        loop {
            match self.tok.kind {
                TokenKind::Star => {
                    self.advance();
                    value *= self.factor()?;
                }
                TokenKind::Slash => {
                    self.advance();
                    value /= self.factor()?;
                }
                _ => return Ok(value),
            }
        }
    }

    /// factor := ('-'|'+') factor | number | 'pi' | '(' expr ')'
    fn factor(&mut self) -> Result<f64, QasmError> {
        match self.tok.kind {
            TokenKind::Minus => {
                self.advance();
                Ok(-self.factor()?)
            }
            TokenKind::Plus => {
                self.advance();
                self.factor()
            }
            TokenKind::Number(v) => {
                self.advance();
                Ok(v)
            }
            TokenKind::Ident("pi") => {
                self.advance();
                Ok(PI)
            }
            TokenKind::LParen => {
                self.advance();
                let v = self.expression()?;
                self.expect(TokenKind::RParen)?;
                Ok(v)
            }
            other => Err(self.error_here(format!(
                "expected a parameter expression, found {}",
                other.describe()
            ))),
        }
    }
}

/// How a QASM mnemonic maps into the IR.
#[derive(Clone, Copy)]
struct GateSpec {
    num_params: usize,
    num_qubits: usize,
    kind: SpecKind,
}

#[derive(Clone, Copy)]
enum SpecKind {
    One(OneQubitKind),
    /// `u2(φ, λ) = U(π/2, φ, λ)`
    U2,
    Two(TwoQubitKind),
}

impl GateSpec {
    fn lookup(name: &str) -> Option<GateSpec> {
        use OneQubitKind as O;
        use TwoQubitKind as T;
        let (num_params, num_qubits, kind) = match name {
            "h" => (0, 1, SpecKind::One(O::H)),
            "x" => (0, 1, SpecKind::One(O::X)),
            "y" => (0, 1, SpecKind::One(O::Y)),
            "z" => (0, 1, SpecKind::One(O::Z)),
            "s" => (0, 1, SpecKind::One(O::S)),
            "sdg" => (0, 1, SpecKind::One(O::Sdg)),
            "t" => (0, 1, SpecKind::One(O::T)),
            "tdg" => (0, 1, SpecKind::One(O::Tdg)),
            "sx" => (0, 1, SpecKind::One(O::Sx)),
            "id" => (0, 1, SpecKind::One(O::I)),
            "rx" => (1, 1, SpecKind::One(O::Rx)),
            "ry" => (1, 1, SpecKind::One(O::Ry)),
            "rz" => (1, 1, SpecKind::One(O::Rz)),
            "u1" | "p" => (1, 1, SpecKind::One(O::P)),
            "u2" => (2, 1, SpecKind::U2),
            "u3" | "u" => (3, 1, SpecKind::One(O::U)),
            "cx" | "CX" => (0, 2, SpecKind::Two(T::Cx)),
            "cz" => (0, 2, SpecKind::Two(T::Cz)),
            "swap" => (0, 2, SpecKind::Two(T::Swap)),
            "cu1" | "cp" => (1, 2, SpecKind::Two(T::Cp)),
            "rzz" => (1, 2, SpecKind::Two(T::Rzz)),
            _ => return None,
        };
        Some(GateSpec {
            num_params,
            num_qubits,
            kind,
        })
    }

    fn build_one(&self, q: Qubit, params: &[f64]) -> Gate {
        match self.kind {
            SpecKind::One(kind) => {
                let p = match *params {
                    [] => Params::EMPTY,
                    [a] => Params::one(a),
                    [a, b, c] => Params::three(a, b, c),
                    _ => unreachable!("validated arity"),
                };
                Gate::one(kind, q, p)
            }
            SpecKind::U2 => Gate::one(
                OneQubitKind::U,
                q,
                Params::three(FRAC_PI_2, params[0], params[1]),
            ),
            SpecKind::Two(_) => unreachable!("two-qubit spec used as one-qubit"),
        }
    }

    fn build_two(&self, a: Qubit, b: Qubit, params: &[f64]) -> Gate {
        match self.kind {
            SpecKind::Two(kind) => {
                let p = match *params {
                    [] => Params::EMPTY,
                    [theta] => Params::one(theta),
                    _ => unreachable!("validated arity"),
                };
                Gate::two(kind, a, b, p)
            }
            _ => unreachable!("one-qubit spec used as two-qubit"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";

    fn parse_body(body: &str) -> Circuit {
        parse(&format!("{HEADER}{body}")).expect("valid program")
    }

    #[test]
    fn parses_minimal_program() {
        let c = parse_body("qreg q[2];\nh q[0];\ncx q[0], q[1];\n");
        assert_eq!(c.num_qubits(), 2);
        assert_eq!(c.num_gates(), 2);
        assert_eq!(c.gates()[1], Gate::cx(Qubit(0), Qubit(1)));
    }

    #[test]
    fn parses_parameter_expressions() {
        let c = parse_body("qreg q[1];\nrz(pi/2) q[0];\nrx(-pi/4) q[0];\nu1(3*0.5+1) q[0];\n");
        let angles: Vec<f64> = c.gates().iter().map(|g| g.params().as_slice()[0]).collect();
        assert!((angles[0] - FRAC_PI_2).abs() < 1e-12);
        assert!((angles[1] + PI / 4.0).abs() < 1e-12);
        assert!((angles[2] - 2.5).abs() < 1e-12);
    }

    #[test]
    fn nested_parentheses_in_params() {
        let c = parse_body("qreg q[1];\nrz((pi/(2+2))) q[0];\n");
        assert!((c.gates()[0].params().as_slice()[0] - PI / 4.0).abs() < 1e-12);
    }

    #[test]
    fn u2_becomes_u_with_half_pi_theta() {
        let c = parse_body("qreg q[1];\nu2(0.1, 0.2) q[0];\n");
        match c.gates()[0] {
            Gate::One { kind, params, .. } => {
                assert_eq!(kind, OneQubitKind::U);
                let p = params.as_slice();
                assert_eq!(p[0], FRAC_PI_2);
                assert_eq!(p[1], 0.1);
                assert_eq!(p[2], 0.2);
            }
            _ => panic!("expected one-qubit gate"),
        }
    }

    #[test]
    fn multiple_registers_flatten_in_order() {
        let c = parse_body("qreg a[2];\nqreg b[3];\nx a[1];\nx b[0];\n");
        assert_eq!(c.num_qubits(), 5);
        assert_eq!(c.gates()[0].qubits().0, Qubit(1));
        assert_eq!(c.gates()[1].qubits().0, Qubit(2));
    }

    #[test]
    fn one_qubit_broadcast() {
        let c = parse_body("qreg q[3];\nh q;\n");
        assert_eq!(c.num_gates(), 3);
        for (i, g) in c.iter().enumerate() {
            assert_eq!(g.qubits().0, Qubit(i as u32));
        }
    }

    #[test]
    fn two_qubit_register_broadcast() {
        let c = parse_body("qreg a[2];\nqreg b[2];\ncx a, b;\n");
        assert_eq!(c.num_gates(), 2);
        assert_eq!(c.gates()[0], Gate::cx(Qubit(0), Qubit(2)));
        assert_eq!(c.gates()[1], Gate::cx(Qubit(1), Qubit(3)));
    }

    #[test]
    fn mixed_broadcast_single_and_register() {
        let c = parse_body("qreg a[1];\nqreg b[3];\ncx a[0], b;\n");
        assert_eq!(c.num_gates(), 3);
        for (i, g) in c.iter().enumerate() {
            assert_eq!(g.qubits(), (Qubit(0), Some(Qubit(1 + i as u32))));
        }
    }

    #[test]
    fn broadcast_hitting_same_wire_is_error() {
        // q[0] against the whole of q collides on the (q[0], q[0]) pair.
        let err = parse(&format!("{HEADER}qreg q[3];\ncx q[0], q;\n")).unwrap_err();
        assert!(err.message().contains("same wire"));
    }

    #[test]
    fn measure_and_barrier_are_skipped_and_counted() {
        let program = format!(
            "{HEADER}qreg q[2];\ncreg c[2];\nh q[0];\nbarrier q;\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
        );
        let parsed = parse_program(&program).unwrap();
        assert_eq!(parsed.circuit.num_gates(), 1);
        assert_eq!(parsed.skipped_barriers, 1);
        assert_eq!(parsed.skipped_measurements, 2);
        assert_eq!(parsed.quantum_registers, vec![("q".to_string(), 2)]);
    }

    #[test]
    fn error_on_unknown_gate() {
        let err = parse(&format!("{HEADER}qreg q[1];\nfoo q[0];\n")).unwrap_err();
        assert!(err.message().contains("unknown gate `foo`"));
        assert_eq!(err.line(), 4);
    }

    #[test]
    fn error_on_undeclared_register() {
        let err = parse(&format!("{HEADER}h q[0];\n")).unwrap_err();
        assert!(err.message().contains("undeclared"));
    }

    #[test]
    fn error_on_out_of_range_index() {
        let err = parse(&format!("{HEADER}qreg q[2];\nx q[5];\n")).unwrap_err();
        assert!(err.message().contains("out of range"));
    }

    #[test]
    fn error_on_wrong_param_count() {
        let err = parse(&format!("{HEADER}qreg q[1];\nrz q[0];\n")).unwrap_err();
        assert!(err.message().contains("expects 1 parameter"));
    }

    #[test]
    fn error_on_wrong_qubit_count() {
        let err = parse(&format!("{HEADER}qreg q[2];\ncx q[0];\n")).unwrap_err();
        assert!(err.message().contains("expects 2 qubit"));
    }

    #[test]
    fn error_on_same_wire_twice() {
        let err = parse(&format!("{HEADER}qreg q[2];\ncx q[1], q[1];\n")).unwrap_err();
        assert!(err.message().contains("same wire"));
    }

    #[test]
    fn error_on_duplicate_register() {
        let err = parse(&format!("{HEADER}qreg q[2];\nqreg q[3];\n")).unwrap_err();
        assert!(err.message().contains("already declared"));
    }

    #[test]
    fn error_on_missing_header() {
        let err = parse("qreg q[1];\n").unwrap_err();
        assert!(err.message().contains("OPENQASM"));
    }

    #[test]
    fn error_on_wrong_version() {
        let err = parse("OPENQASM 3.0;\n").unwrap_err();
        assert!(err.message().contains("2.0"));
    }

    #[test]
    fn gate_definitions_are_rejected() {
        let err = parse(&format!("{HEADER}gate mygate a, b {{ cx a, b; }}\n")).unwrap_err();
        assert!(err.message().contains("not supported"));
    }

    #[test]
    fn comments_anywhere() {
        let c = parse_body("qreg q[1]; // my register\n// a comment line\nh q[0];\n");
        assert_eq!(c.num_gates(), 1);
    }

    /// `(line, column, message)` for malformed programs, as the parser
    /// reported them before its tokens borrowed from the source. `true`
    /// prefixes the standard header. Lexical errors win over earlier
    /// syntax errors (`foo q[0]; @`), a non-ASCII byte reads as Latin-1,
    /// and a trailing comment does not move the end-of-input column.
    #[test]
    fn pinned_error_positions_and_messages() {
        #[rustfmt::skip]
        let cases: &[(bool, &str, u32, u32, &str)] = &[
            (true, "qreg q[1];\nfoo q[0];\n", 4, 1, "unknown gate `foo`"),
            (true, "qreg q[1];\nrz(1,2,3,4) q[0];\n", 4, 1, "gate `rz` expects 1 parameter(s), got 4"),
            (true, "qreg q[3];\ncx q[0],q[1],q[2];\n", 4, 1, "gate `cx` expects 2 qubit argument(s), got 3"),
            (true, "qreg q[2];\ncx q[0], q[1], r[0];\n", 4, 16, "undeclared quantum register `r`"),
            (true, "qreg q[1];\nh r[0];\n", 4, 3, "undeclared quantum register `r`"),
            (true, "qreg q[2];\nx q[5];\n", 4, 3, "index 5 out of range for `q[2]`"),
            (true, "qreg q[2];\nx q[1.5];\n", 4, 5, "expected a non-negative integer"),
            (false, "OPENQASM 2.0;\ninclude \"qelib1.inc;\n", 2, 9, "unterminated string literal"),
            (true, "qreg q[1];\nh q[0]; @\n", 4, 9, "unexpected character `@`"),
            (true, "qreg q[1];\nfoo q[0]; @\n", 4, 11, "unexpected character `@`"),
            (true, "qreg q[1];\nh q[0]; é\n", 4, 9, "unexpected character `Ã`"),
            (false, "qreg q[1];\nh q[0];\n", 1, 1, "expected `OPENQASM`, found `qreg`"),
            (false, "OPENQASM 3.0;\n", 1, 10, "only OPENQASM 2.0 is supported"),
            (false, "OPENQASM 2.0\nqreg q[1];\n", 2, 1, "expected `;`, found `qreg`"),
            (false, "", 1, 1, "expected `OPENQASM`, found end of input"),
            (true, "qreg a[2];\nqreg b[3];\ncx a, b;\n", 5, 1, "register size mismatch in broadcast: 2 vs 3"),
            (true, "qreg q[2];\ncx q[1], q[1];\n", 4, 1, "two-qubit gate applied to the same wire twice"),
            (true, "qreg q[3];\ncx q[0], q;\n", 4, 1, "two-qubit gate applied to the same wire twice"),
            (true, "gate foo a { x a; }\n", 3, 1, "custom gate definitions are not supported; inline the body"),
            (true, "qreg q[1];\ncreg c[1];\nif (c==1) x q[0];\n", 5, 6, "unexpected character `=`"),
            (true, "qreg q[1];\nreset q[0];\n", 4, 1, "`reset` statements are not supported"),
            (true, "qreg q[2];\nqreg q[3];\n", 4, 1, "quantum register `q` already declared"),
            (true, "qreg q[1];\nh q[0]", 4, 7, "expected `;`, found end of input"),
            (true, "qreg q[1];\nbarrier q", 4, 10, "unexpected end of input; missing `;`"),
            (true, "qreg q[1];\nrz(*) q[0];\n", 4, 4, "expected a parameter expression, found `*`"),
            (true, "qreg q[1];\nrz((pi) q[0];\n", 4, 9, "expected `)`, found `q`"),
            (true, "qreg q[1];\nrz(1e) q[0];\n", 4, 4, "invalid number literal `1e`"),
            (true, "qreg q[1];\nrz(.) q[0];\n", 4, 4, "invalid number literal `.`"),
            (true, "qreg q[-1];\n", 3, 8, "expected a non-negative integer"),
            (true, "qreg q[4294967296];\n", 3, 8, "expected a non-negative integer"),
            (true, "qreg q[1];\nx q[99999999999999999999];\n", 4, 5, "expected a non-negative integer"),
            (false, "OPENQASM 2.0;\ninclude qelib1;\n", 2, 9, "expected file name string after `include`"),
            (true, "3;\n", 3, 1, "expected a statement, found number `3`"),
            (true, "qreg q[1];\nrz(1,2,3,4,) q[0];\n", 4, 12, "expected a parameter expression, found `)`"),
            (true, "qreg q[1];\nu2(0.1) q[0];\n", 4, 1, "gate `u2` expects 2 parameter(s), got 1"),
            (true, "OPENQASM 2.0;\n", 3, 1, "expected a statement, found `OPENQASM`"),
            (false, "OPENQASM 2.0;\ninclude \"qelib1.inc\"", 2, 21, "expected `;`, found end of input"),
            (true, "qreg q[1];\nh q[0];\ninclude \"a\nb\";\n", 5, 9, "unterminated string literal"),
            (true, "qreg q[1];\nh q[0] // trailing\n;\nrx(pi/0) q[0];\nh q[;\n", 6, 4, "parameter expression is not a finite number"),
            (true, "qreg q[1];\nrz(0/0) q[0];\n", 4, 4, "parameter expression is not a finite number"),
            (true, "qreg q[1];\nrx(-pi/0) q[0];\n", 4, 4, "parameter expression is not a finite number"),
            (true, "qreg q[1];\nu3(0, 2*(1e308*10), 0) q[0];\n", 4, 7, "parameter expression is not a finite number"),
            (true, "qreg q[1];\nrz(1e309 - 1e309) q[0];\n", 4, 4, "parameter expression is not a finite number"),
            (true, "qreg q;\n", 3, 7, "expected `[`, found `;`"),
            (true, "qreg q[1];\nh q[0], q[0];\n", 4, 1, "gate `h` expects 1 qubit argument(s), got 2"),
            (true, "qreg q[1];\nh q[0] q[0];\n", 4, 8, "expected `;`, found `q`"),
            (true, "qreg q[1];\nrz q[0];\n", 4, 1, "gate `rz` expects 1 parameter(s), got 0"),
            (true, "qreg q[1];\nrz() q[0];\n", 4, 1, "gate `rz` expects 1 parameter(s), got 0"),
            (true, "qreg q[1];\nh(pi) q[0];\n", 4, 1, "gate `h` expects 0 parameter(s), got 1"),
            (true, "qreg q[2];\nqreg r[3];\ncx q, r;\n", 5, 1, "register size mismatch in broadcast: 2 vs 3"),
            (true, "qreg q[1];\nmeasure q[0] -> c[0]\n", 5, 1, "unexpected end of input; missing `;`"),
            (true, "qreg q[1];\nrz(pi pi) q[0];\n", 4, 7, "expected `)`, found `pi`"),
            (true, "qreg q[1];\ncreg c[1];\nif (c) x q[0];\n", 5, 1, "`if` statements are not supported"),
            (true, "qreg q[1];\nopaque g a;\n", 4, 1, "custom gate definitions are not supported; inline the body"),
            (true, "qreg q[4000000000]; h q;\n", 3, 21, "program expands to more than 1000000 gates"),
            (true, "qreg q[600000];\nh q;\ncx q[0], q[1];\nx q;\n", 6, 1, "program expands to more than 1000000 gates"),
        ];
        for &(with_header, body, line, column, message) in cases {
            let source = if with_header {
                format!("{HEADER}{body}")
            } else {
                body.to_string()
            };
            let err = parse(&source).expect_err(&source);
            assert_eq!(
                (err.line(), err.column(), err.message()),
                (line, column, message),
                "{source:?}"
            );
        }
    }

    #[test]
    fn integral_float_index_and_size_are_accepted() {
        let c = parse_body("qreg q[2];\nx q[1.0];\nqreg r[2.0];\ncx q[0], r[1];\n");
        assert_eq!(c.num_qubits(), 4);
        assert_eq!(c.gates()[0], Gate::x(Qubit(1)));
        assert_eq!(c.gates()[1], Gate::cx(Qubit(0), Qubit(3)));
    }

    #[test]
    fn unary_sign_chains_fold() {
        let c = parse_body("qreg q[1];\nrz(--+-pi) q[0];\n");
        assert_eq!(c.gates()[0].params().as_slice(), &[-PI]);
    }

    #[test]
    fn register_overflow_is_an_error() {
        let err = parse(&format!("{HEADER}qreg a[4294967295];\nqreg b[1];\n")).unwrap_err();
        assert_eq!((err.line(), err.column()), (4, 1));
        assert!(err.message().contains("2^32"), "{err}");
    }

    #[test]
    fn all_supported_gates_parse() {
        let body = "qreg q[3];\n\
            h q[0]; x q[0]; y q[0]; z q[0]; s q[0]; sdg q[0]; t q[0]; tdg q[0];\n\
            sx q[0]; id q[0]; rx(0.1) q[0]; ry(0.2) q[0]; rz(0.3) q[0];\n\
            u1(0.4) q[0]; p(0.5) q[0]; u2(0.6,0.7) q[0]; u3(0.8,0.9,1.0) q[0]; u(1.1,1.2,1.3) q[0];\n\
            cx q[0], q[1]; cz q[1], q[2]; swap q[0], q[2]; cu1(0.5) q[0], q[1];\n\
            cp(0.25) q[1], q[2]; rzz(0.75) q[0], q[1];\n";
        let c = parse_body(body);
        assert_eq!(c.num_gates(), 24);
        assert_eq!(c.num_two_qubit_gates(), 6);
    }
}
