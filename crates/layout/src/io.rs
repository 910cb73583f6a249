//! Plain-text interchange format (the workspace's DEF substitute).
//!
//! The format is line-oriented, whitespace-separated, with `#` comments:
//!
//! ```text
//! PILFILL 1
//! DESIGN demo
//! DIE 0 0 100000 100000
//! TECH 0.07 3.9 500
//! RULES 400 200 300
//! LAYER m3 h
//! NET clk SOURCE 0 50000
//!   SEG m3 0 50000 90000 50000 200
//!   SINK 90000 50000
//! ENDNET
//! ENDDESIGN
//! ```

use crate::{Design, FillRules, Layer, LayoutError, Net, Segment, Tech};
use pilfill_geom::{Coord, Point, Rect};
use std::fmt::Write as _;

#[cfg(test)]
mod mutants;
#[cfg(test)]
mod reference;

impl Design {
    /// Serializes the design to the text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "PILFILL 1");
        // An unnamed design (the reader's default when no `DESIGN` line
        // came) writes no `DESIGN` line: a bare `DESIGN` is rejected.
        if !self.name.is_empty() {
            let _ = writeln!(out, "DESIGN {}", self.name);
        }
        let _ = writeln!(
            out,
            "DIE {} {} {} {}",
            self.die.left, self.die.bottom, self.die.right, self.die.top
        );
        let _ = writeln!(
            out,
            "TECH {} {} {}",
            self.tech.sheet_res_ohm_sq, self.tech.eps_r, self.tech.thickness
        );
        let _ = writeln!(
            out,
            "RULES {} {} {}",
            self.rules.feature_size, self.rules.gap, self.rules.buffer
        );
        for layer in &self.layers {
            let dir = if layer.dir.is_horizontal() { "h" } else { "v" };
            let _ = writeln!(out, "LAYER {} {}", layer.name, dir);
        }
        for o in &self.obstructions {
            let _ = writeln!(
                out,
                "OBS {} {} {} {} {}",
                self.layers[o.layer.0].name, o.rect.left, o.rect.bottom, o.rect.right, o.rect.top
            );
        }
        for net in &self.nets {
            let _ = writeln!(
                out,
                "NET {} SOURCE {} {}",
                net.name, net.source.x, net.source.y
            );
            for s in &net.segments {
                let _ = writeln!(
                    out,
                    "  SEG {} {} {} {} {} {}",
                    self.layers[s.layer.0].name, s.start.x, s.start.y, s.end.x, s.end.y, s.width
                );
            }
            for sink in &net.sinks {
                let _ = writeln!(out, "  SINK {} {}", sink.x, sink.y);
            }
            let _ = writeln!(out, "ENDNET");
        }
        let _ = writeln!(out, "ENDDESIGN");
        out
    }

    /// Parses a design from the text format and validates it.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::Parse`] with the offending line number on
    /// syntax errors, or any [`Design::validate`] error afterwards.
    pub fn from_text(text: &str) -> Result<Design, LayoutError> {
        Parser::new(text).parse()
    }
}

/// Streams the text line by line: each `next` refills one reused token
/// buffer, so reading a line allocates nothing once the buffer has grown
/// to the widest line.
struct Parser<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    toks: Vec<&'a str>,
}

fn err(line: usize, message: impl Into<String>) -> LayoutError {
    LayoutError::Parse {
        line,
        message: message.into(),
    }
}

fn parse_coord(line: usize, tok: &str) -> Result<Coord, LayoutError> {
    tok.parse()
        .map_err(|_| err(line, format!("expected integer, got `{tok}`")))
}

fn parse_f64(line: usize, tok: &str) -> Result<f64, LayoutError> {
    tok.parse()
        .map_err(|_| err(line, format!("expected number, got `{tok}`")))
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            lines: text.lines().enumerate(),
            toks: Vec::new(),
        }
    }

    /// Advances to the next line with a token outside its `#` comment,
    /// leaves the tokens in `self.toks` and returns the 1-based line number.
    fn next(&mut self) -> Option<usize> {
        for (i, l) in self.lines.by_ref() {
            let content = l.split('#').next().unwrap_or("");
            self.toks.clear();
            self.toks.extend(content.split_whitespace());
            if !self.toks.is_empty() {
                return Some(i + 1);
            }
        }
        None
    }

    fn parse(mut self) -> Result<Design, LayoutError> {
        let line = self.next().ok_or_else(|| err(1, "empty input"))?;
        if self.toks != ["PILFILL", "1"] {
            return Err(err(line, "expected header `PILFILL 1`"));
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

        while let Some(line) = self.next() {
            let toks = &self.toks;
            match toks[0] {
                "DESIGN" => {
                    name = toks
                        .get(1)
                        .ok_or_else(|| err(line, "DESIGN needs a name"))?
                        .to_string();
                }
                "DIE" => {
                    if toks.len() != 5 {
                        return Err(err(line, "DIE needs 4 coordinates"));
                    }
                    die = Some(Rect::new(
                        parse_coord(line, toks[1])?,
                        parse_coord(line, toks[2])?,
                        parse_coord(line, toks[3])?,
                        parse_coord(line, toks[4])?,
                    ));
                }
                "TECH" => {
                    if toks.len() != 4 {
                        return Err(err(line, "TECH needs 3 values"));
                    }
                    tech = Tech {
                        sheet_res_ohm_sq: parse_f64(line, toks[1])?,
                        eps_r: parse_f64(line, toks[2])?,
                        thickness: parse_coord(line, toks[3])?,
                    };
                }
                "RULES" => {
                    if toks.len() != 4 {
                        return Err(err(line, "RULES needs 3 values"));
                    }
                    rules = FillRules {
                        feature_size: parse_coord(line, toks[1])?,
                        gap: parse_coord(line, toks[2])?,
                        buffer: parse_coord(line, toks[3])?,
                    };
                }
                "LAYER" => {
                    if toks.len() != 3 {
                        return Err(err(line, "LAYER needs a name and direction"));
                    }
                    let dir = toks[2]
                        .parse()
                        .map_err(|_| err(line, "LAYER direction must be h or v"))?;
                    layers.push(Layer {
                        name: toks[1].to_string(),
                        dir,
                    });
                }
                "OBS" => {
                    if toks.len() != 6 {
                        return Err(err(line, "OBS needs a layer and 4 coordinates"));
                    }
                    let layer = layers
                        .iter()
                        .position(|l| l.name == toks[1])
                        .map(crate::LayerId)
                        .ok_or_else(|| LayoutError::UnknownLayer(toks[1].to_string()))?;
                    obstructions.push(crate::Obstruction {
                        layer,
                        rect: Rect::new(
                            parse_coord(line, toks[2])?,
                            parse_coord(line, toks[3])?,
                            parse_coord(line, toks[4])?,
                            parse_coord(line, toks[5])?,
                        ),
                    });
                }
                "NET" => {
                    if current.is_some() {
                        return Err(err(line, "nested NET (missing ENDNET?)"));
                    }
                    if toks.len() != 5 || toks[2] != "SOURCE" {
                        return Err(err(line, "expected `NET <name> SOURCE <x> <y>`"));
                    }
                    current = Some(Net {
                        name: toks[1].to_string(),
                        source: Point::new(
                            parse_coord(line, toks[3])?,
                            parse_coord(line, toks[4])?,
                        ),
                        sinks: Vec::new(),
                        segments: Vec::new(),
                    });
                }
                "SEG" => {
                    let net = current
                        .as_mut()
                        .ok_or_else(|| err(line, "SEG outside NET"))?;
                    if toks.len() != 7 {
                        return Err(err(
                            line,
                            "expected `SEG <layer> <x0> <y0> <x1> <y1> <width>`",
                        ));
                    }
                    let layer = layers
                        .iter()
                        .position(|l| l.name == toks[1])
                        .map(crate::LayerId)
                        .ok_or_else(|| LayoutError::UnknownLayer(toks[1].to_string()))?;
                    net.segments.push(Segment {
                        layer,
                        start: Point::new(parse_coord(line, toks[2])?, parse_coord(line, toks[3])?),
                        end: Point::new(parse_coord(line, toks[4])?, parse_coord(line, toks[5])?),
                        width: parse_coord(line, toks[6])?,
                    });
                }
                "SINK" => {
                    let net = current
                        .as_mut()
                        .ok_or_else(|| err(line, "SINK outside NET"))?;
                    if toks.len() != 3 {
                        return Err(err(line, "expected `SINK <x> <y>`"));
                    }
                    net.sinks.push(Point::new(
                        parse_coord(line, toks[1])?,
                        parse_coord(line, toks[2])?,
                    ));
                }
                "ENDNET" => {
                    let net = current
                        .take()
                        .ok_or_else(|| err(line, "ENDNET without NET"))?;
                    nets.push(net);
                }
                "ENDDESIGN" => {
                    ended = true;
                    break;
                }
                other => {
                    return Err(err(line, format!("unknown directive `{other}`")));
                }
            }
        }

        if current.is_some() {
            return Err(err(0, "unterminated NET at end of input"));
        }
        if !ended {
            return Err(err(0, "missing ENDDESIGN"));
        }
        let die = die.ok_or_else(|| err(0, "missing DIE"))?;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DesignBuilder;
    use pilfill_geom::Dir;

    fn sample() -> Design {
        DesignBuilder::new("demo", Rect::new(0, 0, 50_000, 50_000))
            .layer("m3", Dir::Horizontal)
            .layer("m2", Dir::Vertical)
            .net("a", Point::new(0, 1000))
            .segment("m3", Point::new(0, 1000), Point::new(20_000, 1000), 200)
            .segment(
                "m2",
                Point::new(20_000, 1000),
                Point::new(20_000, 5000),
                200,
            )
            .sink(Point::new(20_000, 5000))
            .net("b", Point::new(0, 9000))
            .segment("m3", Point::new(0, 9000), Point::new(30_000, 9000), 400)
            .sink(Point::new(30_000, 9000))
            .build()
            .expect("valid sample")
    }

    #[test]
    fn round_trip_preserves_design() {
        let d = sample();
        let text = d.to_text();
        let d2 = Design::from_text(&text).expect("parse back");
        assert_eq!(d, d2);
    }

    #[test]
    fn parse_with_comments_and_blank_lines() {
        let d = sample();
        let mut text = String::from("# generated file\n\n");
        text.push_str(&d.to_text());
        let d2 = Design::from_text(&text).expect("parse with leading comments");
        assert_eq!(d, d2);
        // An inline comment after a directive's values is stripped ...
        let trailing = text.replace("DIE 0 0 50000 50000", "DIE 0 0 50000 50000 # die here");
        assert_eq!(Design::from_text(&trailing), Ok(d.clone()));
        // ... and one before them swallows them: the `DIE` on line 5 keeps
        // no coordinates.
        assert_eq!(
            Design::from_text(&text.replace("DIE 0", "DIE # 0")),
            Err(LayoutError::Parse {
                line: 5,
                message: "DIE needs 4 coordinates".into()
            })
        );
        // A commented-out directive is gone, and line numbers still count
        // the comment lines: line 6 is the `DIE` line here.
        let broken = text.replace("DIE 0", "# DIE 0\nDIE zero");
        assert_eq!(
            Design::from_text(&broken),
            Err(LayoutError::Parse {
                line: 6,
                message: "expected integer, got `zero`".into()
            })
        );
    }

    #[test]
    fn unicode_whitespace_and_crlf_separate_tokens() {
        let d = sample();
        let text = d.to_text().replace(' ', "\u{3000}").replace('\n', "\r\n");
        assert_eq!(Design::from_text(&text), Ok(d.clone()));
        let text = d.to_text().replacen(' ', "\u{a0}", 3);
        assert_eq!(Design::from_text(&text), Ok(d));
    }

    #[test]
    fn unnamed_design_round_trips() {
        let text = "PILFILL 1\nDIE 0 0 100 100\nENDDESIGN\n";
        let d = Design::from_text(text).expect("parse");
        assert_eq!(d.name, "");
        assert_eq!(
            d.to_text(),
            text.replace(
                "ENDDESIGN",
                "TECH 0.07 3.9 500\nRULES 300 150 150\nENDDESIGN"
            )
        );
        assert_eq!(Design::from_text(&d.to_text()), Ok(d));
    }

    #[test]
    fn i64_boundary_segment_is_outside_die() {
        // The drawn rect of this segment reaches past `i64::MAX`: it must
        // be rejected, not wrapped into an empty rect that the die
        // "contains" (or overflow a debug build).
        let text = "PILFILL 1\nDIE 0 0 1000 1000\nLAYER m3 h\n\
                    NET n SOURCE 10 9223372036854775807\n\
                    SEG m3 10 9223372036854775807 500 9223372036854775807 400\n\
                    ENDNET\nENDDESIGN\n";
        assert_eq!(
            Design::from_text(text),
            Err(LayoutError::OutsideDie { net: "n".into() })
        );
        // The same at the left edge, inside a die reaching down to
        // `i64::MIN` (its width is exactly `i64::MAX`).
        let text = "PILFILL 1\n\
                    DIE -9223372036854775808 0 -1 1000\n\
                    LAYER m2 v\n\
                    NET n SOURCE -9223372036854775807 0\n\
                    SEG m2 -9223372036854775807 0 -9223372036854775807 500 400\n\
                    ENDNET\nENDDESIGN\n";
        assert_eq!(
            Design::from_text(text),
            Err(LayoutError::OutsideDie { net: "n".into() })
        );
    }

    #[test]
    fn die_whose_width_overflows_i64_is_rejected() {
        // Each side fits an i64 but the span between them does not: the
        // die must be rejected, not measured with a wrapped width.
        let text = "PILFILL 1\n\
                    DIE -9223372036854775808 -9223372036854775808 9223372036854775807 9223372036854775807\n\
                    LAYER m3 h\n\
                    NET n SOURCE 0 0\n\
                    SEG m3 0 0 1000 0 200\n\
                    SINK 1000 0\n\
                    ENDNET\nENDDESIGN\n";
        assert_eq!(
            Design::from_text(text),
            Err(LayoutError::InvalidParameter(
                "die width or height overflows i64".into()
            ))
        );
        // One axis overflowing is enough.
        let tall = text.replace(
            "DIE -9223372036854775808 -9223372036854775808 9223372036854775807 9223372036854775807",
            "DIE -5000 -9223372036854775808 5000 1",
        );
        assert!(matches!(
            Design::from_text(&tall),
            Err(LayoutError::InvalidParameter(_))
        ));
        // A die exactly `i64::MAX` wide is still accepted.
        let widest = text.replace(
            "DIE -9223372036854775808 -9223372036854775808 9223372036854775807 9223372036854775807",
            "DIE -1 -5000 9223372036854775806 5000",
        );
        assert!(Design::from_text(&widest).is_ok());
    }

    #[test]
    fn inline_comments_are_stripped() {
        let text = "PILFILL 1 # header\nDESIGN x\nDIE 0 0 100 100 # the die\nENDDESIGN\n";
        let d = Design::from_text(text).expect("parse");
        assert_eq!(d.die, Rect::new(0, 0, 100, 100));
    }

    #[test]
    fn error_reports_line_numbers() {
        let text = "PILFILL 1\nDESIGN x\nDIE 0 0 oops 100\nENDDESIGN\n";
        match Design::from_text(text) {
            Err(LayoutError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn missing_header_rejected() {
        assert!(matches!(
            Design::from_text("DESIGN x\n"),
            Err(LayoutError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn seg_outside_net_rejected() {
        let text = "PILFILL 1\nDIE 0 0 10 10\nLAYER m3 h\nSEG m3 0 0 5 0 2\nENDDESIGN\n";
        assert!(matches!(
            Design::from_text(text),
            Err(LayoutError::Parse { line: 4, .. })
        ));
    }

    #[test]
    fn unknown_layer_in_seg_rejected() {
        let text =
            "PILFILL 1\nDIE 0 0 10 10\nNET n SOURCE 0 0\nSEG mX 0 0 5 0 2\nENDNET\nENDDESIGN\n";
        assert!(matches!(
            Design::from_text(text),
            Err(LayoutError::UnknownLayer(_))
        ));
    }

    #[test]
    fn unterminated_net_rejected() {
        let text = "PILFILL 1\nDIE 0 0 10 10\nNET n SOURCE 0 0\nENDDESIGN\n";
        // `ENDDESIGN` ends the read with the `NET` still open; the open net
        // is reported after the read, with no line number.
        assert_eq!(
            Design::from_text(text),
            Err(LayoutError::Parse {
                line: 0,
                message: "unterminated NET at end of input".into()
            })
        );
    }

    #[test]
    fn missing_enddesign_rejected() {
        let text = "PILFILL 1\nDIE 0 0 10 10\n";
        assert!(Design::from_text(text).is_err());
    }
}
