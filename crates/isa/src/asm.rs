//! A small textual assembly format for [`Program`]s, so custom
//! micro-benchmarks can be written, versioned and shared without Rust
//! code.
//!
//! # Format
//!
//! Line-oriented; `;` or `#` start a comment. Three directives and one
//! instruction per line:
//!
//! ```text
//! ; declare address streams (before use)
//! stream data chase 8MiB          ; dependent pointer chase
//! stream table seq 16KiB stride 8 ; independent strided walk
//! iterations 1200                  ; micro-iterations per repetition
//!
//! ld    r2, data[r2]   ; load; [rA] makes the address depend on rA
//! add   r3, r2         ; fixed-point op: dst, then up to two sources
//! mul   r4, r3, r2
//! fadd  r5, r4
//! fdiv  r6
//! st    data, r3       ; store r3 to the stream's current element
//! prio  6              ; or-nop requesting priority 6
//! nop
//! br    loop           ; loop | taken | nottaken | random:<permille>
//! ```
//!
//! Sizes accept `B`, `KiB`/`K`, `MiB`/`M`, `GiB`/`G` suffixes.
//!
//! # Example
//!
//! ```
//! use p5_isa::asm;
//!
//! let program = asm::parse(
//!     "demo",
//!     r"
//!     stream a chase 64KiB
//!     iterations 100
//!     ld  r2, a[r2]
//!     add r3, r2
//!     st  a, r3
//!     br  loop
//!     ",
//! )?;
//! assert_eq!(program.body().len(), 4);
//!
//! // Programs render back to the same format.
//! let text = asm::format(&program);
//! let again = asm::parse("demo", &text)?;
//! assert_eq!(again.body(), program.body());
//! # Ok::<(), p5_isa::asm::AsmError>(())
//! ```

use crate::inst::{BranchBehavior, Op, StaticInst};
use crate::program::{AccessPattern, DataKind, Program, StreamId, StreamSpec};
use crate::{Priority, Reg};
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

/// Parse error, with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError {
        line,
        message: message.into(),
    }
}

fn parse_size(token: &str, line: usize) -> Result<u64, AsmError> {
    let token = token.trim();
    let (digits, multiplier) = if let Some(d) = token
        .strip_suffix("GiB")
        .or_else(|| token.strip_suffix('G'))
    {
        (d, 1u64 << 30)
    } else if let Some(d) = token
        .strip_suffix("MiB")
        .or_else(|| token.strip_suffix('M'))
    {
        (d, 1u64 << 20)
    } else if let Some(d) = token
        .strip_suffix("KiB")
        .or_else(|| token.strip_suffix('K'))
    {
        (d, 1u64 << 10)
    } else if let Some(d) = token.strip_suffix('B') {
        (d, 1)
    } else {
        (token, 1)
    };
    digits
        .trim()
        .parse::<u64>()
        .map(|n| n * multiplier)
        .map_err(|_| err(line, format!("invalid size `{token}`")))
}

fn parse_reg(token: &str, line: usize) -> Result<Reg, AsmError> {
    let token = token.trim().trim_end_matches(',');
    let digits = token
        .strip_prefix('r')
        .or_else(|| token.strip_prefix('f'))
        .ok_or_else(|| err(line, format!("expected a register, got `{token}`")))?;
    let index: u8 = digits
        .parse()
        .map_err(|_| err(line, format!("invalid register `{token}`")))?;
    if (index as usize) >= Reg::COUNT {
        return Err(err(line, format!("register index {index} out of range")));
    }
    Ok(Reg::new(index))
}

/// Parses the textual format into a [`Program`] named `name`.
///
/// # Errors
///
/// Returns an [`AsmError`] pointing at the offending line for syntax
/// errors, undeclared streams, bad registers, or a program that fails
/// validation (empty body, zero iterations).
#[allow(clippy::too_many_lines)]
pub fn parse(name: &str, source: &str) -> Result<Program, AsmError> {
    let mut builder = Program::builder(name);
    let mut streams: HashMap<String, StreamId> = HashMap::new();
    let mut kinds: HashMap<StreamId, DataKind> = HashMap::new();
    let mut iterations_seen = false;

    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split([';', '#']).next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let mnemonic = tokens[0].to_ascii_lowercase();

        match mnemonic.as_str() {
            "stream" => {
                if tokens.len() < 4 {
                    return Err(err(
                        line_no,
                        "usage: stream <name> chase|seq <size> [stride N]",
                    ));
                }
                let sname = tokens[1].to_string();
                if streams.contains_key(&sname) {
                    return Err(err(line_no, format!("stream `{sname}` already declared")));
                }
                let footprint = parse_size(tokens[3], line_no)?;
                let spec = match tokens[2].to_ascii_lowercase().as_str() {
                    "chase" => StreamSpec::pointer_chase(footprint),
                    "seq" => {
                        let stride = match tokens.get(4) {
                            Some(&"stride") => tokens
                                .get(5)
                                .ok_or_else(|| err(line_no, "stride needs a value"))
                                .and_then(|t| parse_size(t, line_no))?,
                            Some(other) => {
                                return Err(err(line_no, format!("unexpected `{other}`")))
                            }
                            None => 8,
                        };
                        StreamSpec::sequential(footprint, stride)
                    }
                    other => return Err(err(line_no, format!("unknown stream kind `{other}`"))),
                };
                let id = builder.stream(spec);
                streams.insert(sname, id);
                kinds.insert(id, DataKind::Int);
            }
            "iterations" => {
                let n: u64 = tokens
                    .get(1)
                    .ok_or_else(|| err(line_no, "iterations needs a count"))?
                    .parse()
                    .map_err(|_| err(line_no, "invalid iteration count"))?;
                builder.iterations(n);
                iterations_seen = true;
            }
            "add" | "sub" | "and" | "or" | "cmp" => {
                let mut inst = StaticInst::new(Op::IntAlu);
                inst = with_operands(inst, &tokens[1..], line_no)?;
                builder.push(inst);
            }
            "mul" => {
                builder.push(with_operands(
                    StaticInst::new(Op::IntMul),
                    &tokens[1..],
                    line_no,
                )?);
            }
            "div" => {
                builder.push(with_operands(
                    StaticInst::new(Op::IntDiv),
                    &tokens[1..],
                    line_no,
                )?);
            }
            "fadd" | "fsub" | "fmul" | "fma" => {
                builder.push(with_operands(
                    StaticInst::new(Op::FpAlu),
                    &tokens[1..],
                    line_no,
                )?);
            }
            "fdiv" => {
                builder.push(with_operands(
                    StaticInst::new(Op::FpDiv),
                    &tokens[1..],
                    line_no,
                )?);
            }
            "ld" | "lfd" => {
                // ld rD, <stream>   or   ld rD, <stream>[rA]
                if tokens.len() < 3 {
                    return Err(err(line_no, "usage: ld rD, <stream>[rA]"));
                }
                let dst = parse_reg(tokens[1], line_no)?;
                let operand = tokens[2].trim_end_matches(',');
                let (sname, addr_reg) = match operand.split_once('[') {
                    Some((s, rest)) => {
                        let r = rest
                            .strip_suffix(']')
                            .ok_or_else(|| err(line_no, format!("missing `]` in `{operand}`")))?;
                        (s, Some(parse_reg(r, line_no)?))
                    }
                    None => (operand, None),
                };
                let stream = *streams
                    .get(sname)
                    .ok_or_else(|| err(line_no, format!("undeclared stream `{sname}`")))?;
                let kind = if mnemonic == "lfd" {
                    DataKind::Float
                } else {
                    kinds.get(&stream).copied().unwrap_or(DataKind::Int)
                };
                let mut inst = StaticInst::new(Op::Load { stream, kind }).dst(dst);
                if let Some(r) = addr_reg {
                    inst = inst.src1(r);
                }
                builder.push(inst);
            }
            "st" | "stfd" => {
                // st <stream>, rS
                if tokens.len() < 3 {
                    return Err(err(line_no, "usage: st <stream>, rS"));
                }
                let sname = tokens[1].trim_end_matches(',');
                let stream = *streams
                    .get(sname)
                    .ok_or_else(|| err(line_no, format!("undeclared stream `{sname}`")))?;
                let kind = if mnemonic == "stfd" {
                    DataKind::Float
                } else {
                    DataKind::Int
                };
                let src = parse_reg(tokens[2], line_no)?;
                builder.push(StaticInst::new(Op::Store { stream, kind }).src1(src));
            }
            "br" => {
                let target = tokens
                    .get(1)
                    .ok_or_else(|| err(line_no, "br needs loop|taken|nottaken|random:<permille>"))?
                    .to_ascii_lowercase();
                let behavior = if target == "loop" {
                    BranchBehavior::LoopBack
                } else if target == "taken" {
                    BranchBehavior::ConstantTaken
                } else if target == "nottaken" {
                    BranchBehavior::ConstantNotTaken
                } else if let Some(p) = target.strip_prefix("random:") {
                    let permille: u16 = p
                        .parse()
                        .map_err(|_| err(line_no, format!("invalid permille `{p}`")))?;
                    if permille > 1000 {
                        return Err(err(line_no, "permille must be 0..=1000"));
                    }
                    BranchBehavior::Random {
                        taken_permille: permille,
                    }
                } else {
                    return Err(err(line_no, format!("unknown branch target `{target}`")));
                };
                builder.push(StaticInst::new(Op::Branch(behavior)));
            }
            "prio" => {
                let level: u8 = tokens
                    .get(1)
                    .ok_or_else(|| err(line_no, "prio needs a level 0-7"))?
                    .parse()
                    .map_err(|_| err(line_no, "invalid priority level"))?;
                let priority = Priority::from_level(level)
                    .ok_or_else(|| err(line_no, "priority level must be 0-7"))?;
                builder.push(StaticInst::new(Op::OrNop(priority)));
            }
            "nop" => {
                builder.push(StaticInst::new(Op::Nop));
            }
            other => return Err(err(line_no, format!("unknown mnemonic `{other}`"))),
        }
    }

    if !iterations_seen {
        builder.iterations(1);
    }
    builder
        .build()
        .map_err(|e| err(source.lines().count(), e.to_string()))
}

fn with_operands(
    mut inst: StaticInst,
    operands: &[&str],
    line: usize,
) -> Result<StaticInst, AsmError> {
    if operands.len() > 3 {
        return Err(err(line, "at most one destination and two sources"));
    }
    if let Some(d) = operands.first() {
        inst = inst.dst(parse_reg(d, line)?);
    }
    if let Some(s1) = operands.get(1) {
        inst = inst.src1(parse_reg(s1, line)?);
    }
    if let Some(s2) = operands.get(2) {
        inst = inst.src2(parse_reg(s2, line)?);
    }
    Ok(inst)
}

/// Renders a [`Program`] in the textual format accepted by [`parse`]
/// (streams, iterations, then the body).
#[must_use]
pub fn format(program: &Program) -> String {
    let mut out = String::new();
    for (i, spec) in program.streams().iter().enumerate() {
        match spec.pattern {
            AccessPattern::PointerChase => {
                let _ = writeln!(out, "stream s{i} chase {}", spec.footprint_bytes);
            }
            AccessPattern::Sequential { stride } => {
                let _ = writeln!(
                    out,
                    "stream s{i} seq {} stride {stride}",
                    spec.footprint_bytes
                );
            }
        }
    }
    let _ = writeln!(out, "iterations {}", program.iterations());
    for inst in program.body() {
        match inst.op {
            Op::IntAlu => write_rrr(&mut out, "add", inst),
            Op::IntMul => write_rrr(&mut out, "mul", inst),
            Op::IntDiv => write_rrr(&mut out, "div", inst),
            Op::FpAlu => write_rrr(&mut out, "fadd", inst),
            Op::FpDiv => write_rrr(&mut out, "fdiv", inst),
            Op::Nop => {
                let _ = writeln!(out, "nop");
            }
            Op::OrNop(p) => {
                let _ = writeln!(out, "prio {}", p.level());
            }
            Op::Load { stream, kind } => {
                let mnemonic = if kind == DataKind::Float { "lfd" } else { "ld" };
                let dst = inst.dst.expect("loads have destinations");
                match inst.src1 {
                    Some(a) => {
                        let _ = writeln!(out, "{mnemonic} {dst}, s{}[{a}]", stream.index());
                    }
                    None => {
                        let _ = writeln!(out, "{mnemonic} {dst}, s{}", stream.index());
                    }
                }
            }
            Op::Store { stream, kind } => {
                let mnemonic = if kind == DataKind::Float {
                    "stfd"
                } else {
                    "st"
                };
                let src = inst.src1.expect("stores have sources");
                let _ = writeln!(out, "{mnemonic} s{}, {src}", stream.index());
            }
            Op::Branch(behavior) => {
                let target = match behavior {
                    BranchBehavior::LoopBack => "loop".to_string(),
                    BranchBehavior::ConstantTaken => "taken".to_string(),
                    BranchBehavior::ConstantNotTaken => "nottaken".to_string(),
                    BranchBehavior::Random { taken_permille } => {
                        format!("random:{taken_permille}")
                    }
                };
                let _ = writeln!(out, "br {target}");
            }
        }
    }
    out
}

fn write_rrr(out: &mut String, mnemonic: &str, inst: &StaticInst) {
    let _ = write!(out, "{mnemonic}");
    let mut sep = " ";
    if let Some(d) = inst.dst {
        let _ = write!(out, "{sep}{d}");
        sep = ", ";
    }
    for s in inst.sources() {
        let _ = write!(out, "{sep}{s}");
        sep = ", ";
    }
    let _ = writeln!(out);
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHASE: &str = r"
        ; a pointer chase with an update
        stream a chase 64KiB
        iterations 100
        ld  r2, a[r2]
        add r3, r2
        st  a, r3
        br  loop
    ";

    #[test]
    fn parses_a_chase_kernel() {
        let p = parse("chase", CHASE).unwrap();
        assert_eq!(p.name(), "chase");
        assert_eq!(p.iterations(), 100);
        assert_eq!(p.body().len(), 4);
        assert!(p.streams()[0].is_dependent());
        assert_eq!(p.streams()[0].footprint_bytes, 64 * 1024);
        // The load chases through r2.
        let ld = &p.body()[0];
        assert!(ld.op.is_load());
        assert_eq!(ld.dst, Some(Reg::new(2)));
        assert_eq!(ld.src1, Some(Reg::new(2)));
    }

    #[test]
    fn parses_sizes_and_strides() {
        let p = parse(
            "s",
            "stream x seq 2MiB stride 128\niterations 5\nld r1, x\nbr loop",
        )
        .unwrap();
        assert_eq!(p.streams()[0].footprint_bytes, 2 * 1024 * 1024);
        assert!(!p.streams()[0].is_dependent());
    }

    #[test]
    fn parses_all_compute_mnemonics() {
        let src = "iterations 1\nadd r1\nsub r2, r1\nmul r3, r1, r2\ndiv r4\nfadd r5\nfsub r6\nfmul r7\nfdiv r8\nnop\nprio 6\nbr random:500";
        let p = parse("mix", src).unwrap();
        assert_eq!(p.body().len(), 11);
        assert!(matches!(p.body()[9].op, Op::OrNop(Priority::High)));
        assert!(matches!(
            p.body()[10].op,
            Op::Branch(BranchBehavior::Random {
                taken_permille: 500
            })
        ));
    }

    #[test]
    fn roundtrips_through_format() {
        let p = parse("rt", CHASE).unwrap();
        let text = format(&p);
        let q = parse("rt", &text).unwrap();
        assert_eq!(p.body(), q.body());
        assert_eq!(p.streams(), q.streams());
        assert_eq!(p.iterations(), q.iterations());
    }

    #[test]
    fn roundtrips_microbenchmark_style_bodies() {
        let src = "stream a seq 16KiB stride 8\niterations 3\nld r1, a\nfadd r2, r1\nstfd a, r2\nbr taken\nbr nottaken\nbr loop";
        let p = parse("m", src).unwrap();
        let q = parse("m", &format(&p)).unwrap();
        assert_eq!(p.body(), q.body());
    }

    #[test]
    fn error_reports_line_numbers() {
        let e = parse("bad", "iterations 1\nfrobnicate r1").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("frobnicate"));
    }

    #[test]
    fn undeclared_stream_is_an_error() {
        let e = parse("bad", "iterations 1\nld r1, nosuch").unwrap_err();
        assert!(e.message.contains("undeclared stream"));
    }

    #[test]
    fn duplicate_stream_is_an_error() {
        let e = parse(
            "bad",
            "stream a chase 1KiB\nstream a chase 2KiB\niterations 1\nnop",
        )
        .unwrap_err();
        assert!(e.message.contains("already declared"));
    }

    #[test]
    fn bad_register_and_priority_errors() {
        assert!(parse("b", "iterations 1\nadd r200").is_err());
        assert!(parse("b", "iterations 1\nadd x1").is_err());
        assert!(parse("b", "iterations 1\nprio 9").is_err());
        assert!(parse("b", "iterations 1\nbr random:2000").is_err());
    }

    #[test]
    fn empty_program_is_an_error() {
        assert!(parse("empty", "; nothing here").is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let p = parse("c", "# hash comment\n\niterations 2\nnop ; trailing\n").unwrap();
        assert_eq!(p.body().len(), 1);
        assert_eq!(p.iterations(), 2);
    }
}
