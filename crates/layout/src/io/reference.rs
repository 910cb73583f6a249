//! The collect-all text reader the streaming [`Design::from_text`] replaced,
//! kept verbatim as the oracle the mutator suite (`super::mutants`) checks it
//! against: it tokenizes every line into its own `Vec` up front and clones
//! each line's tokens again as it reads them. Both readers share
//! [`Design::validate`], so the comparison covers tokenizing, line
//! numbering and directive handling.

use crate::{Design, FillRules, Layer, LayoutError, Net, Segment, Tech};
use pilfill_geom::{Coord, Point, Rect};

/// Parses `text` the way the collect-all reader did.
pub(crate) fn from_text(text: &str) -> Result<Design, LayoutError> {
    Parser::new(text).parse()
}

struct Parser<'a> {
    lines: Vec<(usize, Vec<&'a str>)>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        let lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| {
                let content = l.split('#').next().unwrap_or("");
                (i + 1, content.split_whitespace().collect::<Vec<_>>())
            })
            .filter(|(_, toks)| !toks.is_empty())
            .collect();
        Self { lines, pos: 0 }
    }

    fn err(&self, line: usize, message: impl Into<String>) -> LayoutError {
        LayoutError::Parse {
            line,
            message: message.into(),
        }
    }

    fn next(&mut self) -> Option<(usize, Vec<&'a str>)> {
        let item = self.lines.get(self.pos)?;
        self.pos += 1;
        Some((item.0, item.1.clone()))
    }

    fn parse_coord(&self, line: usize, tok: &str) -> Result<Coord, LayoutError> {
        tok.parse()
            .map_err(|_| self.err(line, format!("expected integer, got `{tok}`")))
    }

    fn parse_f64(&self, line: usize, tok: &str) -> Result<f64, LayoutError> {
        tok.parse()
            .map_err(|_| self.err(line, format!("expected number, got `{tok}`")))
    }

    fn parse(mut self) -> Result<Design, LayoutError> {
        let (line, toks) = self.next().ok_or_else(|| self.err(1, "empty input"))?;
        if toks != ["PILFILL", "1"] {
            return Err(self.err(line, "expected header `PILFILL 1`"));
        }

        let mut name = String::new();
        let mut die: Option<Rect> = None;
        let mut tech = Tech::default();
        let mut rules = FillRules::default();
        let mut layers: Vec<Layer> = Vec::new();
        let mut nets: Vec<Net> = Vec::new();
        let mut obstructions: Vec<crate::Obstruction> = Vec::new();
        let mut current: Option<Net> = None;
        let mut ended = false;

        while let Some((line, toks)) = self.next() {
            match toks[0] {
                "DESIGN" => {
                    name = toks
                        .get(1)
                        .ok_or_else(|| self.err(line, "DESIGN needs a name"))?
                        .to_string();
                }
                "DIE" => {
                    if toks.len() != 5 {
                        return Err(self.err(line, "DIE needs 4 coordinates"));
                    }
                    die = Some(Rect::new(
                        self.parse_coord(line, toks[1])?,
                        self.parse_coord(line, toks[2])?,
                        self.parse_coord(line, toks[3])?,
                        self.parse_coord(line, toks[4])?,
                    ));
                }
                "TECH" => {
                    if toks.len() != 4 {
                        return Err(self.err(line, "TECH needs 3 values"));
                    }
                    tech = Tech {
                        sheet_res_ohm_sq: self.parse_f64(line, toks[1])?,
                        eps_r: self.parse_f64(line, toks[2])?,
                        thickness: self.parse_coord(line, toks[3])?,
                    };
                }
                "RULES" => {
                    if toks.len() != 4 {
                        return Err(self.err(line, "RULES needs 3 values"));
                    }
                    rules = FillRules {
                        feature_size: self.parse_coord(line, toks[1])?,
                        gap: self.parse_coord(line, toks[2])?,
                        buffer: self.parse_coord(line, toks[3])?,
                    };
                }
                "LAYER" => {
                    if toks.len() != 3 {
                        return Err(self.err(line, "LAYER needs a name and direction"));
                    }
                    let dir = toks[2]
                        .parse()
                        .map_err(|_| self.err(line, "LAYER direction must be h or v"))?;
                    layers.push(Layer {
                        name: toks[1].to_string(),
                        dir,
                    });
                }
                "OBS" => {
                    if toks.len() != 6 {
                        return Err(self.err(line, "OBS needs a layer and 4 coordinates"));
                    }
                    let layer = layers
                        .iter()
                        .position(|l| l.name == toks[1])
                        .map(crate::LayerId)
                        .ok_or_else(|| LayoutError::UnknownLayer(toks[1].to_string()))?;
                    obstructions.push(crate::Obstruction {
                        layer,
                        rect: Rect::new(
                            self.parse_coord(line, toks[2])?,
                            self.parse_coord(line, toks[3])?,
                            self.parse_coord(line, toks[4])?,
                            self.parse_coord(line, toks[5])?,
                        ),
                    });
                }
                "NET" => {
                    if current.is_some() {
                        return Err(self.err(line, "nested NET (missing ENDNET?)"));
                    }
                    if toks.len() != 5 || toks[2] != "SOURCE" {
                        return Err(self.err(line, "expected `NET <name> SOURCE <x> <y>`"));
                    }
                    current = Some(Net {
                        name: toks[1].to_string(),
                        source: Point::new(
                            self.parse_coord(line, toks[3])?,
                            self.parse_coord(line, toks[4])?,
                        ),
                        sinks: Vec::new(),
                        segments: Vec::new(),
                    });
                }
                "SEG" => {
                    let net = current
                        .as_mut()
                        .ok_or_else(|| self.err(line, "SEG outside NET"))?;
                    if toks.len() != 7 {
                        return Err(
                            self.err(line, "expected `SEG <layer> <x0> <y0> <x1> <y1> <width>`")
                        );
                    }
                    let layer = layers
                        .iter()
                        .position(|l| l.name == toks[1])
                        .map(crate::LayerId)
                        .ok_or_else(|| LayoutError::UnknownLayer(toks[1].to_string()))?;
                    net.segments.push(Segment {
                        layer,
                        start: Point::new(
                            self.parse_coord(line, toks[2])?,
                            self.parse_coord(line, toks[3])?,
                        ),
                        end: Point::new(
                            self.parse_coord(line, toks[4])?,
                            self.parse_coord(line, toks[5])?,
                        ),
                        width: self.parse_coord(line, toks[6])?,
                    });
                }
                "SINK" => {
                    let net = current
                        .as_mut()
                        .ok_or_else(|| self.err(line, "SINK outside NET"))?;
                    if toks.len() != 3 {
                        return Err(self.err(line, "expected `SINK <x> <y>`"));
                    }
                    net.sinks.push(Point::new(
                        self.parse_coord(line, toks[1])?,
                        self.parse_coord(line, toks[2])?,
                    ));
                }
                "ENDNET" => {
                    let net = current
                        .take()
                        .ok_or_else(|| self.err(line, "ENDNET without NET"))?;
                    nets.push(net);
                }
                "ENDDESIGN" => {
                    ended = true;
                    break;
                }
                other => {
                    return Err(self.err(line, format!("unknown directive `{other}`")));
                }
            }
        }

        if current.is_some() {
            return Err(self.err(0, "unterminated NET at end of input"));
        }
        if !ended {
            return Err(self.err(0, "missing ENDDESIGN"));
        }
        let die = die.ok_or_else(|| self.err(0, "missing DIE"))?;

        let design = Design {
            name,
            die,
            tech,
            rules,
            layers,
            nets,
            obstructions,
        };
        design.validate()?;
        Ok(design)
    }
}
