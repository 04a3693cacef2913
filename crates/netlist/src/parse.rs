//! A SPICE-style deck parser.
//!
//! Supports the subset of SPICE a cell-characterization flow needs:
//!
//! * first line is the deck title (SPICE tradition);
//! * `*` comment lines, `;`/`$` inline comments, `+` continuations;
//! * `R`, `C`, `V`, `I`, `M`, `X` element cards;
//! * `V`/`I` sources with `DC`, `PULSE(...)`, `PWL(...)`, `SIN(...)`;
//! * `.model <name> nmos|pmos [param=value …]` on top of the built-in
//!   PTM-90-like cards, plus the built-in card names
//!   (`ptm90_nmos`, `ptm90_nmos_hvt`, `ptm90_nmos_lvt`, `ptm90_pmos`,
//!   `ptm90_pmos_hvt`) usable directly;
//! * `.subckt` / `.ends` with `X` instantiation (definition before use);
//! * `.meas tran` delay (`trig`/`targ`) and window-statistic
//!   (`avg|max|min … from= to=`) cards;
//! * `.tran`, `.op`, `.dc`, `.temp`, `.end`.
//!
//! Everything is case-insensitive, matching SPICE.

use std::collections::HashMap;

use vls_device::{MosGeometry, MosModel, SourceWaveform};

use crate::{parse_spice_value, Circuit, NodeId, Subcircuit};

/// An analysis request found in the deck.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisCard {
    /// `.op` — DC operating point.
    Op,
    /// `.tran tstep tstop` — transient analysis. `tstep` is the
    /// suggested output resolution, `tstop` the end time, in seconds.
    Tran {
        /// Suggested print/output step, s.
        tstep: f64,
        /// Stop time, s.
        tstop: f64,
    },
    /// `.dc source start stop step` — DC sweep of a named source.
    DcSweep {
        /// Name of the swept voltage source.
        source: String,
        /// Sweep start value, V.
        start: f64,
        /// Sweep end value, V.
        stop: f64,
        /// Sweep increment, V.
        step: f64,
    },
    /// `.ac dec N fstart fstop source` — logarithmic AC sweep with a
    /// unit excitation on the named source.
    Ac {
        /// Points per decade.
        points_per_decade: usize,
        /// Start frequency, Hz.
        f_start: f64,
        /// Stop frequency, Hz.
        f_stop: f64,
        /// The excited source.
        source: String,
    },
}

/// One edge specification inside a `.meas` delay card:
/// `v(<node>) val=<v> rise=<n>` or `fall=<n>`.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasEdge {
    /// Probed node name.
    pub node: String,
    /// Crossing threshold, V.
    pub value: f64,
    /// `true` for a rising crossing.
    pub rising: bool,
    /// 1-based occurrence index of the crossing.
    pub occurrence: usize,
}

/// The statistic of a `.meas … avg|max|min` card.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasStat {
    /// Time average over the window.
    Avg,
    /// Maximum over the window.
    Max,
    /// Minimum over the window.
    Min,
}

/// A `.meas tran` measurement card.
#[derive(Debug, Clone, PartialEq)]
pub enum MeasCard {
    /// `trig … targ …` delay between two crossings.
    Delay {
        /// Result name.
        name: String,
        /// Triggering edge.
        trig: MeasEdge,
        /// Target edge (searched at or after the trigger).
        targ: MeasEdge,
    },
    /// `avg|max|min v(node) from=… to=…` window statistic.
    Stat {
        /// Result name.
        name: String,
        /// Which statistic.
        stat: MeasStat,
        /// Probed node name.
        node: String,
        /// Window start, s.
        from: f64,
        /// Window end, s.
        to: f64,
    },
}

impl MeasCard {
    /// The card's result name.
    pub fn name(&self) -> &str {
        match self {
            MeasCard::Delay { name, .. } | MeasCard::Stat { name, .. } => name,
        }
    }
}

/// A parsed deck: the flattened circuit plus any analysis cards.
#[derive(Debug, Clone)]
pub struct Deck {
    /// The title line.
    pub title: String,
    /// The flattened circuit.
    pub circuit: Circuit,
    /// Analyses in deck order.
    pub analyses: Vec<AnalysisCard>,
    /// `.meas` measurement requests in deck order.
    pub measures: Vec<MeasCard>,
    /// `.ic` initial conditions: `(node name, volts)` pairs, applied
    /// with UIC transient semantics.
    pub initial_conditions: Vec<(String, f64)>,
    /// `.temp` value in °C, if present.
    pub temperature_celsius: Option<f64>,
}

/// A parse failure with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDeckError {
    /// 1-based line number in the original text.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl core::fmt::Display for ParseDeckError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "deck line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseDeckError {}

fn builtin_model(name: &str) -> Option<MosModel> {
    match name {
        "ptm90_nmos" => Some(MosModel::ptm90_nmos()),
        "ptm90_nmos_hvt" => Some(MosModel::ptm90_nmos_hvt()),
        "ptm90_nmos_lvt" => Some(MosModel::ptm90_nmos_lvt()),
        "ptm90_pmos" => Some(MosModel::ptm90_pmos()),
        "ptm90_pmos_hvt" => Some(MosModel::ptm90_pmos_hvt()),
        _ => None,
    }
}

/// Logical line after comment stripping and continuation joining.
struct LogicalLine {
    line_no: usize,
    tokens: Vec<String>,
}

fn tokenize(text: &str) -> Vec<LogicalLine> {
    let mut logical: Vec<(usize, String)> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let mut line = raw.to_string();
        // Inline comments.
        for marker in [';', '$'] {
            if let Some(pos) = line.find(marker) {
                line.truncate(pos);
            }
        }
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('*') {
            continue;
        }
        if let Some(cont) = trimmed.strip_prefix('+') {
            if let Some(last) = logical.last_mut() {
                last.1.push(' ');
                last.1.push_str(cont);
                continue;
            }
        }
        logical.push((idx + 1, trimmed.to_string()));
    }
    logical
        .into_iter()
        .map(|(line_no, text)| {
            // Space out parentheses and commas so PULSE(...) splits.
            let spaced: String = text
                .chars()
                .flat_map(|c| match c {
                    '(' | ')' | ',' | '=' => vec![' ', c, ' '],
                    _ => vec![c],
                })
                .collect();
            LogicalLine {
                line_no,
                tokens: spaced
                    .split_whitespace()
                    .map(|t| t.to_ascii_lowercase())
                    .collect(),
            }
        })
        .collect()
}

struct Parser {
    subckts: HashMap<String, Subcircuit>,
    models: HashMap<String, MosModel>,
}

impl Parser {
    fn err(line: usize, message: impl Into<String>) -> ParseDeckError {
        ParseDeckError {
            line,
            message: message.into(),
        }
    }

    fn value(line: usize, tok: &str) -> Result<f64, ParseDeckError> {
        parse_spice_value(tok).map_err(|e| Self::err(line, e.to_string()))
    }

    fn model(&self, line: usize, name: &str) -> Result<MosModel, ParseDeckError> {
        if let Some(m) = self.models.get(name) {
            return Ok(m.clone());
        }
        builtin_model(name).ok_or_else(|| Self::err(line, format!("unknown MOS model: {name}")))
    }

    /// Parses a source specification starting at `tokens[start]`.
    fn parse_wave(line: usize, tokens: &[String]) -> Result<SourceWaveform, ParseDeckError> {
        if tokens.is_empty() {
            return Err(Self::err(line, "missing source value"));
        }
        let head = tokens[0].as_str();
        // Collect numeric arguments between parentheses (or the rest).
        let args = |from: usize| -> Result<Vec<f64>, ParseDeckError> {
            tokens[from..]
                .iter()
                .filter(|t| *t != "(" && *t != ")")
                .map(|t| Self::value(line, t))
                .collect()
        };
        match head {
            "dc" => {
                let a = args(1)?;
                if a.len() != 1 {
                    return Err(Self::err(line, "DC takes exactly one value"));
                }
                Ok(SourceWaveform::Dc(a[0]))
            }
            "pulse" => {
                let a = args(1)?;
                if a.len() < 6 {
                    return Err(Self::err(line, "PULSE needs v1 v2 td tr tf pw [period]"));
                }
                Ok(SourceWaveform::Pulse {
                    v1: a[0],
                    v2: a[1],
                    delay: a[2],
                    rise: a[3],
                    fall: a[4],
                    width: a[5],
                    period: a.get(6).copied().unwrap_or(f64::INFINITY),
                })
            }
            "pwl" => {
                let a = args(1)?;
                if a.len() < 2 || a.len() % 2 != 0 {
                    return Err(Self::err(line, "PWL needs an even number of t/v pairs"));
                }
                let points = a.chunks(2).map(|p| (p[0], p[1])).collect();
                Ok(SourceWaveform::Pwl(points))
            }
            "sin" => {
                let a = args(1)?;
                if a.len() < 3 {
                    return Err(Self::err(line, "SIN needs offset amplitude freq [delay]"));
                }
                Ok(SourceWaveform::Sine {
                    offset: a[0],
                    amplitude: a[1],
                    freq: a[2],
                    delay: a.get(3).copied().unwrap_or(0.0),
                })
            }
            _ => {
                // Bare value means DC.
                Ok(SourceWaveform::Dc(Self::value(line, head)?))
            }
        }
    }

    /// Parses one element card into `circuit`.
    fn parse_element(
        &self,
        circuit: &mut Circuit,
        line: usize,
        tokens: &[String],
    ) -> Result<(), ParseDeckError> {
        let name = tokens[0].clone();
        let kind = name.chars().next().expect("nonempty token");
        let need = |n: usize| -> Result<(), ParseDeckError> {
            if tokens.len() < n {
                Err(Self::err(
                    line,
                    format!("element {name}: expected at least {n} fields"),
                ))
            } else {
                Ok(())
            }
        };
        match kind {
            'r' => {
                need(4)?;
                let a = circuit.node(&tokens[1]);
                let b = circuit.node(&tokens[2]);
                let v = Self::value(line, &tokens[3])?;
                if !(v > 0.0 && v.is_finite()) {
                    return Err(Self::err(line, format!("{name}: invalid resistance {v}")));
                }
                circuit.add_resistor(&name, a, b, v);
            }
            'c' => {
                need(4)?;
                let a = circuit.node(&tokens[1]);
                let b = circuit.node(&tokens[2]);
                let v = Self::value(line, &tokens[3])?;
                if !(v >= 0.0 && v.is_finite()) {
                    return Err(Self::err(line, format!("{name}: invalid capacitance {v}")));
                }
                circuit.add_capacitor(&name, a, b, v);
            }
            'v' | 'i' => {
                need(4)?;
                let pos = circuit.node(&tokens[1]);
                let neg = circuit.node(&tokens[2]);
                let wave = Self::parse_wave(line, &tokens[3..])?;
                wave.validate().map_err(|m| Self::err(line, m))?;
                if kind == 'v' {
                    circuit.add_vsource(&name, pos, neg, wave);
                } else {
                    circuit.add_isource(&name, pos, neg, wave);
                }
            }
            'm' => {
                need(6)?;
                let d = circuit.node(&tokens[1]);
                let g = circuit.node(&tokens[2]);
                let s = circuit.node(&tokens[3]);
                let b = circuit.node(&tokens[4]);
                let model = self.model(line, &tokens[5])?;
                let mut w = None;
                let mut l = None;
                let mut i = 6;
                while i < tokens.len() {
                    if i + 2 < tokens.len() && tokens[i + 1] == "=" {
                        let val = Self::value(line, &tokens[i + 2])?;
                        match tokens[i].as_str() {
                            "w" => w = Some(val),
                            "l" => l = Some(val),
                            other => {
                                return Err(Self::err(
                                    line,
                                    format!("{name}: unknown instance parameter {other}"),
                                ))
                            }
                        }
                        i += 3;
                    } else {
                        return Err(Self::err(line, format!("{name}: malformed parameter list")));
                    }
                }
                let w = w.ok_or_else(|| Self::err(line, format!("{name}: missing W=")))?;
                let l = l.ok_or_else(|| Self::err(line, format!("{name}: missing L=")))?;
                if !(w > 0.0 && l > 0.0 && w.is_finite() && l.is_finite()) {
                    return Err(Self::err(
                        line,
                        format!("{name}: invalid geometry W={w} L={l}"),
                    ));
                }
                circuit.add_mosfet(&name, d, g, s, b, model, MosGeometry::new(w, l));
            }
            'x' => {
                need(3)?;
                let sub_name = tokens.last().expect("len checked");
                let sub = self.subckts.get(sub_name).ok_or_else(|| {
                    Self::err(
                        line,
                        format!("unknown subcircuit {sub_name} (define before use)"),
                    )
                })?;
                let conns: Vec<NodeId> = tokens[1..tokens.len() - 1]
                    .iter()
                    .map(|t| circuit.node(t))
                    .collect();
                if conns.len() != sub.ports().len() {
                    return Err(Self::err(
                        line,
                        format!(
                            "instance {name}: {} connections for {} ports of {sub_name}",
                            conns.len(),
                            sub.ports().len()
                        ),
                    ));
                }
                sub.instantiate(circuit, &name, &conns);
            }
            other => {
                return Err(Self::err(
                    line,
                    format!("unsupported element type '{other}'"),
                ));
            }
        }
        Ok(())
    }

    /// Parses a `v ( node )` probe starting at `*i`; advances the
    /// cursor.
    fn parse_probe(
        line: usize,
        tokens: &[String],
        i: &mut usize,
    ) -> Result<String, ParseDeckError> {
        if tokens.len() < *i + 4
            || tokens[*i] != "v"
            || tokens[*i + 1] != "("
            || tokens[*i + 3] != ")"
        {
            return Err(Self::err(line, ".meas expects a v(<node>) probe"));
        }
        let node = tokens[*i + 2].clone();
        *i += 4;
        Ok(node)
    }

    /// Parses `key = value` starting at `*i`; advances the cursor.
    fn parse_kv(
        line: usize,
        tokens: &[String],
        i: &mut usize,
    ) -> Result<(String, f64), ParseDeckError> {
        if tokens.len() < *i + 3 || tokens[*i + 1] != "=" {
            return Err(Self::err(line, ".meas expects key=value parameters"));
        }
        let key = tokens[*i].clone();
        let value = Self::value(line, &tokens[*i + 2])?;
        *i += 3;
        Ok((key, value))
    }

    /// Parses one `.meas tran …` card.
    fn parse_meas_card(line: usize, tokens: &[String]) -> Result<MeasCard, ParseDeckError> {
        if tokens.len() < 4 || tokens[1] != "tran" {
            return Err(Self::err(line, ".meas supports only the tran analysis"));
        }
        let name = tokens[2].clone();
        let mut i = 3;
        match tokens[i].as_str() {
            "trig" => {
                let edge = |i: &mut usize| -> Result<MeasEdge, ParseDeckError> {
                    let node = Self::parse_probe(line, tokens, i)?;
                    let (k1, value) = Self::parse_kv(line, tokens, i)?;
                    if k1 != "val" {
                        return Err(Self::err(line, ".meas edge expects val= first"));
                    }
                    let (k2, occ) = Self::parse_kv(line, tokens, i)?;
                    let rising = match k2.as_str() {
                        "rise" => true,
                        "fall" => false,
                        other => {
                            return Err(Self::err(
                                line,
                                format!(".meas edge expects rise= or fall=, got {other}"),
                            ))
                        }
                    };
                    if occ < 1.0 || occ.fract() != 0.0 {
                        return Err(Self::err(
                            line,
                            ".meas occurrence must be a positive integer",
                        ));
                    }
                    Ok(MeasEdge {
                        node,
                        value,
                        rising,
                        occurrence: occ as usize,
                    })
                };
                i += 1;
                let trig = edge(&mut i)?;
                if tokens.get(i).map(|t| t.as_str()) != Some("targ") {
                    return Err(Self::err(line, ".meas trig must be followed by targ"));
                }
                i += 1;
                let targ = edge(&mut i)?;
                Ok(MeasCard::Delay { name, trig, targ })
            }
            "avg" | "max" | "min" => {
                let stat = match tokens[i].as_str() {
                    "avg" => MeasStat::Avg,
                    "max" => MeasStat::Max,
                    _ => MeasStat::Min,
                };
                i += 1;
                let node = Self::parse_probe(line, tokens, &mut i)?;
                let (k1, from) = Self::parse_kv(line, tokens, &mut i)?;
                let (k2, to) = Self::parse_kv(line, tokens, &mut i)?;
                if k1 != "from" || k2 != "to" || to <= from {
                    return Err(Self::err(
                        line,
                        ".meas stat expects from=<t> to=<t>, to > from",
                    ));
                }
                Ok(MeasCard::Stat {
                    name,
                    stat,
                    node,
                    from,
                    to,
                })
            }
            other => Err(Self::err(line, format!("unsupported .meas kind {other}"))),
        }
    }

    fn parse_model_card(&mut self, line: usize, tokens: &[String]) -> Result<(), ParseDeckError> {
        if tokens.len() < 3 {
            return Err(Self::err(line, ".model needs a name and a type"));
        }
        let name = tokens[1].clone();
        let mut model = match tokens[2].as_str() {
            "nmos" => MosModel::ptm90_nmos(),
            "pmos" => MosModel::ptm90_pmos(),
            other => return Err(Self::err(line, format!("unknown model type {other}"))),
        };
        let mut i = 3;
        while i < tokens.len() {
            if i + 2 < tokens.len() && tokens[i + 1] == "=" {
                let val = Self::value(line, &tokens[i + 2])?;
                match tokens[i].as_str() {
                    // Threshold is given signed in decks; stored as magnitude.
                    "vto" | "vt0" => model.vt0 = val.abs(),
                    "kp" => model.kp = val,
                    "gamma" => model.gamma = val,
                    "phi" => model.phi = val,
                    "lambda" => model.lambda = val,
                    "n" => model.n = val,
                    "theta" => model.theta = val,
                    "dibl" => model.dibl = val,
                    "dibllref" => model.dibl_lref = val,
                    "cox" => model.cox = val,
                    "cgdo" => model.cgdo = val,
                    "cgso" => model.cgso = val,
                    "cj" => model.cj = val,
                    other => {
                        return Err(Self::err(line, format!("unknown model parameter {other}")))
                    }
                }
                i += 3;
            } else {
                return Err(Self::err(line, ".model: malformed parameter list"));
            }
        }
        model
            .validate()
            .map_err(|msg| Self::err(line, format!(".model {name}: {msg}")))?;
        self.models.insert(name, model);
        Ok(())
    }
}

/// Parses a deck from a file, expanding `.include <path>` directives
/// (paths resolve relative to the including file's directory, up to 16
/// levels deep). Line numbers in errors refer to the expanded text.
///
/// # Errors
///
/// Returns [`ParseDeckError`] for unreadable includes, include cycles
/// deeper than the limit, and any error of [`parse_deck`].
pub fn parse_deck_file(path: impl AsRef<std::path::Path>) -> Result<Deck, ParseDeckError> {
    let path = path.as_ref();
    let text = expand_includes(path, 0)?;
    parse_deck(&text)
}

fn expand_includes(path: &std::path::Path, depth: usize) -> Result<String, ParseDeckError> {
    if depth > 16 {
        return Err(ParseDeckError {
            line: 0,
            message: format!(".include nesting deeper than 16 at {}", path.display()),
        });
    }
    let text = std::fs::read_to_string(path).map_err(|e| ParseDeckError {
        line: 0,
        message: format!("cannot read {}: {e}", path.display()),
    })?;
    let base = path.parent().unwrap_or_else(|| std::path::Path::new("."));
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let trimmed = line.trim();
        let lower = trimmed.to_ascii_lowercase();
        if let Some(rest) = lower.strip_prefix(".include") {
            let target = rest.trim().trim_matches('"');
            if target.is_empty() {
                return Err(ParseDeckError {
                    line: 0,
                    message: ".include needs a file path".to_string(),
                });
            }
            // Use the original-case path text, same offset as in lower.
            let orig = trimmed[".include".len()..].trim().trim_matches('"');
            let included = expand_includes(&base.join(orig), depth + 1)?;
            out.push_str(&included);
            if !included.ends_with('\n') {
                out.push('\n');
            }
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    Ok(out)
}

/// Parses a SPICE-style deck. See the module docs for the supported
/// subset.
///
/// # Errors
///
/// Returns [`ParseDeckError`] with the offending source line on the
/// first syntax or semantic problem.
pub fn parse_deck(text: &str) -> Result<Deck, ParseDeckError> {
    let mut title = String::new();
    let mut body = text;
    if let Some(pos) = text.find('\n') {
        title = text[..pos].trim().to_string();
        body = &text[pos + 1..];
    }
    // Line numbers in errors must count the title line.
    let lines = tokenize(body);
    let mut parser = Parser {
        subckts: HashMap::new(),
        models: HashMap::new(),
    };
    let mut circuit = Circuit::new();
    let mut analyses = Vec::new();
    let mut measures = Vec::new();
    let mut initial_conditions = Vec::new();
    let mut temperature = None;

    // Current .subckt scope, if any, with the line that opened it.
    let mut scope: Option<(usize, String, Vec<String>, Circuit)> = None;

    for l in lines {
        let line_no = l.line_no + 1; // account for the title line
        let head = l.tokens[0].as_str();
        if head.starts_with('.') {
            match head {
                ".subckt" => {
                    if scope.is_some() {
                        return Err(Parser::err(line_no, "nested .subckt is not supported"));
                    }
                    if l.tokens.len() < 3 {
                        return Err(Parser::err(line_no, ".subckt needs a name and ports"));
                    }
                    scope = Some((
                        line_no,
                        l.tokens[1].clone(),
                        l.tokens[2..].to_vec(),
                        Circuit::new(),
                    ));
                }
                ".ends" => {
                    let (_, name, ports, mut template) = scope
                        .take()
                        .ok_or_else(|| Parser::err(line_no, ".ends without .subckt"))?;
                    // Ports must exist as nodes even if unused by elements.
                    for p in &ports {
                        template.node(p);
                    }
                    let port_refs: Vec<&str> = ports.iter().map(|s| s.as_str()).collect();
                    parser
                        .subckts
                        .insert(name.clone(), Subcircuit::new(&name, &port_refs, template));
                }
                ".model" => parser.parse_model_card(line_no, &l.tokens)?,
                ".meas" | ".measure" => measures.push(Parser::parse_meas_card(line_no, &l.tokens)?),
                ".ic" => {
                    let mut i = 1;
                    while i < l.tokens.len() {
                        let node = Parser::parse_probe(line_no, &l.tokens, &mut i)?;
                        let (Some("="), Some(value)) =
                            (l.tokens.get(i).map(|t| t.as_str()), l.tokens.get(i + 1))
                        else {
                            return Err(Parser::err(line_no, ".ic expects v(node)=value"));
                        };
                        let value = Parser::value(line_no, value)?;
                        i += 2;
                        initial_conditions.push((node, value));
                    }
                    if initial_conditions.is_empty() {
                        return Err(Parser::err(line_no, ".ic needs at least one assignment"));
                    }
                }
                ".tran" => {
                    if l.tokens.len() < 3 {
                        return Err(Parser::err(line_no, ".tran needs tstep and tstop"));
                    }
                    let tstep = Parser::value(line_no, &l.tokens[1])?;
                    let tstop = Parser::value(line_no, &l.tokens[2])?;
                    if !(tstop > 0.0 && tstop.is_finite()) {
                        return Err(Parser::err(
                            line_no,
                            format!(".tran stop time must be positive and finite, got {tstop}"),
                        ));
                    }
                    analyses.push(AnalysisCard::Tran { tstep, tstop });
                }
                ".op" => analyses.push(AnalysisCard::Op),
                ".dc" => {
                    if l.tokens.len() < 5 {
                        return Err(Parser::err(line_no, ".dc needs source start stop step"));
                    }
                    analyses.push(AnalysisCard::DcSweep {
                        source: l.tokens[1].clone(),
                        start: Parser::value(line_no, &l.tokens[2])?,
                        stop: Parser::value(line_no, &l.tokens[3])?,
                        step: Parser::value(line_no, &l.tokens[4])?,
                    });
                }
                ".ac" => {
                    if l.tokens.len() < 6 || l.tokens[1] != "dec" {
                        return Err(Parser::err(
                            line_no,
                            ".ac expects: .ac dec <points> <fstart> <fstop> <source>",
                        ));
                    }
                    let ppd = Parser::value(line_no, &l.tokens[2])?;
                    let f_start = Parser::value(line_no, &l.tokens[3])?;
                    let f_stop = Parser::value(line_no, &l.tokens[4])?;
                    if ppd < 1.0 || ppd.fract() != 0.0 || f_start <= 0.0 || f_stop <= f_start {
                        return Err(Parser::err(line_no, ".ac parameters out of range"));
                    }
                    analyses.push(AnalysisCard::Ac {
                        points_per_decade: ppd as usize,
                        f_start,
                        f_stop,
                        source: l.tokens[5].clone(),
                    });
                }
                ".temp" => {
                    if l.tokens.len() < 2 {
                        return Err(Parser::err(line_no, ".temp needs a value"));
                    }
                    temperature = Some(Parser::value(line_no, &l.tokens[1])?);
                }
                ".end" => break,
                other => {
                    return Err(Parser::err(
                        line_no,
                        format!("unsupported directive {other}"),
                    ))
                }
            }
        } else {
            let target = match &mut scope {
                Some((_, _, _, template)) => template,
                None => &mut circuit,
            };
            parser.parse_element(target, line_no, &l.tokens)?;
        }
    }
    if let Some((line_no, name, _, _)) = scope {
        return Err(Parser::err(line_no, format!("unterminated .subckt {name}")));
    }
    Ok(Deck {
        title,
        circuit,
        analyses,
        measures,
        initial_conditions,
        temperature_celsius: temperature,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Element;

    const INVERTER_DECK: &str = "\
inverter characterization
* power supply and input
Vdd vdd 0 DC 1.2
Vin in 0 PULSE(0 1.2 1n 50p 50p 2n 8n)
* the gate
Mp out in vdd vdd ptm90_pmos W=0.4u L=0.1u
Mn out in 0 0 ptm90_nmos W=0.2u L=0.1u
Cl out 0 1fF
.tran 1p 10n
.end
";

    #[test]
    fn parses_an_inverter_deck() {
        let deck = parse_deck(INVERTER_DECK).unwrap();
        assert_eq!(deck.title, "inverter characterization");
        assert_eq!(deck.circuit.elements().len(), 5);
        assert_eq!(
            deck.analyses,
            vec![AnalysisCard::Tran {
                tstep: 1e-12,
                tstop: 10e-9
            }]
        );
        deck.circuit.validate().unwrap();
        match deck.circuit.element("mp").unwrap() {
            Element::Mosfet { geom, model, .. } => {
                assert!((geom.width() - 0.4e-6).abs() < 1e-18);
                assert_eq!(model.polarity, vls_device::MosPolarity::Pmos);
            }
            _ => panic!("mp should be a MOSFET"),
        }
    }

    #[test]
    fn continuation_and_comments() {
        let deck = parse_deck(
            "t\nVin in 0 ; inline comment\n+ PULSE(0 1 0 1n 1n 5n 20n)\n* full comment\nR1 in 0 1k\n.end\n",
        )
        .unwrap();
        match deck.circuit.element("vin").unwrap() {
            Element::VoltageSource { wave, .. } => {
                assert!(matches!(wave, SourceWaveform::Pulse { .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn model_card_overrides() {
        let deck = parse_deck(
            "t\n.model mynmos nmos vto=0.45 kp=4e-4\nM1 d g 0 0 mynmos W=1u L=0.1u\nVd d 0 1.2\nVg g 0 1.2\n.end\n",
        )
        .unwrap();
        match deck.circuit.element("m1").unwrap() {
            Element::Mosfet { model, .. } => {
                assert_eq!(model.vt0, 0.45);
                assert_eq!(model.kp, 4e-4);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn subcircuit_definition_and_use() {
        let deck = parse_deck(
            "t
.subckt inv in out vdd
Mp out in vdd vdd ptm90_pmos W=0.4u L=0.1u
Mn out in 0 0 ptm90_nmos W=0.2u L=0.1u
.ends
Vdd vdd 0 1.2
Vin a 0 PULSE(0 1.2 0 10p 10p 1n 4n)
X1 a b vdd inv
X2 b c vdd inv
Cload c 0 2fF
.tran 1p 8n
.end
",
        )
        .unwrap();
        assert!(deck.circuit.element("x1.mp").is_some());
        assert!(deck.circuit.element("x2.mn").is_some());
        deck.circuit.validate().unwrap();
    }

    #[test]
    fn dc_pwl_sin_sources() {
        let deck = parse_deck(
            "t\nV1 a 0 DC 0.8\nV2 b 0 PWL(0 0 1n 1.2)\nV3 c 0 SIN(0.6 0.6 1e9)\nR1 a 0 1k\nR2 b 0 1k\nR3 c 0 1k\n.op\n.end\n",
        )
        .unwrap();
        assert_eq!(deck.analyses, vec![AnalysisCard::Op]);
        match deck.circuit.element("v2").unwrap() {
            Element::VoltageSource {
                wave: SourceWaveform::Pwl(pts),
                ..
            } => {
                assert_eq!(pts.len(), 2)
            }
            _ => panic!(),
        }
    }

    #[test]
    fn dc_sweep_and_temp_cards() {
        let deck =
            parse_deck("t\nV1 a 0 0\nR1 a 0 1k\n.dc V1 0 1.2 0.1\n.temp 60\n.end\n").unwrap();
        assert_eq!(
            deck.analyses,
            vec![AnalysisCard::DcSweep {
                source: "v1".into(),
                start: 0.0,
                stop: 1.2,
                step: 0.1
            }]
        );
        assert_eq!(deck.temperature_celsius, Some(60.0));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_deck("title\nR1 a 0 1k\nQ1 a b c bjt\n.end\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("unsupported element"));

        let err = parse_deck("title\nM1 d g 0 0 nosuchmodel W=1u L=0.1u\n.end\n").unwrap_err();
        assert!(err.message.contains("unknown MOS model"));

        let err = parse_deck("title\nR1 a 0 -5\n.end\n").unwrap_err();
        assert!(err.message.contains("invalid resistance"));

        let err = parse_deck("title\n.subckt foo a\nR1 a 0 1k\n.end\n").unwrap_err();
        assert!(err.message.contains("unterminated .subckt"));
        assert_eq!(err.line, 2, "the line of the unterminated .subckt card");
    }

    #[test]
    fn non_positive_tran_stop_time_is_rejected() {
        for tstop in ["0", "-1n", "1e400"] {
            let deck = format!("t\nV1 a 0 1\nR1 a 0 1k\n.tran 1p {tstop}\n.end\n");
            let err = parse_deck(&deck).unwrap_err();
            assert_eq!(err.line, 4, ".tran 1p {tstop}");
            assert!(err.message.contains("stop time"), "{}", err.message);
        }
    }

    #[test]
    fn instance_with_wrong_port_count_is_rejected() {
        let err = parse_deck("t\n.subckt s a b\nR1 a b 1k\n.ends\nX1 n1 s\n.end\n").unwrap_err();
        assert!(err.message.contains("1 connections for 2 ports"));
    }

    #[test]
    fn missing_geometry_is_rejected() {
        let err = parse_deck("t\nM1 d g 0 0 ptm90_nmos W=1u\n.end\n").unwrap_err();
        assert!(err.message.contains("missing L="));
    }

    #[test]
    fn meas_delay_card_parses() {
        let deck = parse_deck(
            "t\nV1 a 0 1\nR1 a 0 1k\n.meas tran tphl trig v(a) val=0.6 rise=1 targ v(out) val=0.4 fall=2\n.end\n",
        )
        .unwrap();
        assert_eq!(deck.measures.len(), 1);
        match &deck.measures[0] {
            MeasCard::Delay { name, trig, targ } => {
                assert_eq!(name, "tphl");
                assert_eq!(trig.node, "a");
                assert_eq!(trig.value, 0.6);
                assert!(trig.rising);
                assert_eq!(trig.occurrence, 1);
                assert_eq!(targ.node, "out");
                assert!(!targ.rising);
                assert_eq!(targ.occurrence, 2);
            }
            other => panic!("wrong card {other:?}"),
        }
        assert_eq!(deck.measures[0].name(), "tphl");
    }

    #[test]
    fn meas_stat_card_parses() {
        let deck =
            parse_deck("t\nV1 a 0 1\nR1 a 0 1k\n.meas tran ileak avg v(a) from=1n to=2n\n.end\n")
                .unwrap();
        match &deck.measures[0] {
            MeasCard::Stat {
                stat,
                node,
                from,
                to,
                ..
            } => {
                assert_eq!(*stat, MeasStat::Avg);
                assert_eq!(node, "a");
                assert_eq!(*from, 1e-9);
                assert_eq!(*to, 2e-9);
            }
            other => panic!("wrong card {other:?}"),
        }
    }

    #[test]
    fn include_files_are_expanded() {
        let dir = std::env::temp_dir().join("vls_include_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("cells.inc"),
            ".subckt inv a y vdd\nMp y a vdd vdd ptm90_pmos W=0.4u L=0.1u\nMn y a 0 0 ptm90_nmos W=0.2u L=0.1u\n.ends\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("top.sp"),
            "include test\n.include cells.inc\nVdd vdd 0 1.2\nVin a 0 1.2\nX1 a y vdd inv\n.op\n.end\n",
        )
        .unwrap();
        let deck = parse_deck_file(dir.join("top.sp")).unwrap();
        assert!(deck.circuit.element("x1.mp").is_some());
        deck.circuit.validate().unwrap();
        // Missing include is reported with its path.
        std::fs::write(dir.join("bad.sp"), "t\n.include nosuch.inc\n.end\n").unwrap();
        let err = parse_deck_file(dir.join("bad.sp")).unwrap_err();
        assert!(err.message.contains("nosuch.inc"), "{}", err.message);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn include_cycles_are_bounded() {
        let dir = std::env::temp_dir().join("vls_include_cycle");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.sp"), "t\n.include a.sp\n.end\n").unwrap();
        let err = parse_deck_file(dir.join("a.sp")).unwrap_err();
        assert!(err.message.contains("deeper than 16"), "{}", err.message);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn model_cards_are_validated() {
        let err = parse_deck("t\n.model bad nmos kp=-1\n.end\n").unwrap_err();
        assert!(err.message.contains("kp"), "{}", err.message);
        let err = parse_deck("t\n.model bad nmos n=0.2\n.end\n").unwrap_err();
        assert!(err.message.contains("slope factor"), "{}", err.message);
    }

    #[test]
    fn ac_card_parses() {
        let deck =
            parse_deck("t\nV1 a 0 0\nR1 a b 1k\nC1 b 0 1p\n.ac dec 10 1meg 1g V1\n.end\n").unwrap();
        assert_eq!(
            deck.analyses,
            vec![AnalysisCard::Ac {
                points_per_decade: 10,
                f_start: 1e6,
                f_stop: 1e9,
                source: "v1".into()
            }]
        );
        assert!(parse_deck("t\nR1 a 0 1k\n.ac lin 10 1 2 V1\n.end\n").is_err());
        assert!(parse_deck("t\nR1 a 0 1k\n.ac dec 0 1 2 V1\n.end\n").is_err());
        assert!(parse_deck("t\nR1 a 0 1k\n.ac dec 10 5 2 V1\n.end\n").is_err());
    }

    #[test]
    fn ic_card_parses() {
        let deck =
            parse_deck("t\nV1 a 0 1\nR1 a b 1k\nC1 b 0 1p\n.ic v(b)=0.5 v(a)=1.0\n.end\n").unwrap();
        assert_eq!(
            deck.initial_conditions,
            vec![("b".to_string(), 0.5), ("a".to_string(), 1.0)]
        );
        assert!(parse_deck("t\nR1 a 0 1k\n.ic\n.end\n").is_err());
        assert!(parse_deck("t\nR1 a 0 1k\n.ic v(a) 0.5\n.end\n").is_err());
    }

    #[test]
    fn ic_card_with_a_trailing_equals_is_a_line_numbered_error() {
        for card in [".ic v(a)=", ".ic v(b)=0.5 v(a)="] {
            let deck = format!("t\nV1 a 0 1\nR1 a b 1k\n{card}\n");
            let err = parse_deck(&deck).unwrap_err();
            assert_eq!(err.line, 4, "{card}");
            assert_eq!(err.message, ".ic expects v(node)=value", "{card}");
        }
    }

    #[test]
    fn malformed_meas_cards_are_rejected() {
        for bad in [
            ".meas tran x trig v(a) val=0.5 rise=1", // missing targ
            ".meas ac x avg v(a) from=0 to=1",       // not tran
            ".meas tran x avg v(a) from=2 to=1",     // inverted window
            ".meas tran x trig v(a) val=0.5 wobble=1 targ v(b) val=0.5 rise=1", // bad edge kw
            ".meas tran x median v(a) from=0 to=1",  // unknown kind
        ] {
            let deck_text = format!("t\nV1 a 0 1\nR1 a 0 1k\n{bad}\n.end\n");
            assert!(parse_deck(&deck_text).is_err(), "accepted: {bad}");
        }
    }
}
