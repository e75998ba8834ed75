//! In-memory spans for the traced run and the self-time summariser.
//!
//! A span has a layer name, start, end, parent span and the id of the
//! request it belongs to. Spans are only appended while the run lasts;
//! [`Tracer::write_tsv`] writes them out once, at the end.

use std::io::Write;
use std::time::Instant;

/// The layers the traced run times, named after the module that does
/// the work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The whole replayed request (`axml_server::server`).
    Request,
    HttpParse,
    RegistryGet,
    RegistryPrepare,
    /// `eval_with` on the same request: the materialized floor. Not on
    /// the server's path, so it is left out of the residual.
    EvalMaterialize,
    /// The shredded route's evaluation (Datalog fixpoint and decode).
    FixpointEval,
    CursorFirstPiece,
    CursorDrain,
    JsonEncode,
    HttpWrite,
    EditApply,
    EngineLoad,
    EngineRemove,
}

pub const LAYERS: [Layer; 13] = [
    Layer::Request,
    Layer::HttpParse,
    Layer::RegistryGet,
    Layer::RegistryPrepare,
    Layer::EvalMaterialize,
    Layer::FixpointEval,
    Layer::CursorFirstPiece,
    Layer::CursorDrain,
    Layer::JsonEncode,
    Layer::HttpWrite,
    Layer::EditApply,
    Layer::EngineLoad,
    Layer::EngineRemove,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "server.request",
            Layer::HttpParse => "http.parse",
            Layer::RegistryGet => "registry.get",
            Layer::RegistryPrepare => "registry.prepare",
            Layer::EvalMaterialize => "eval.materialize",
            Layer::FixpointEval => "fixpoint.eval",
            Layer::CursorFirstPiece => "cursor.first_piece",
            Layer::CursorDrain => "cursor.drain",
            Layer::JsonEncode => "json.encode",
            Layer::HttpWrite => "http.write",
            Layer::EditApply => "edit.apply",
            Layer::EngineLoad => "engine.load",
            Layer::EngineRemove => "engine.remove",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    /// Whether the server does this work on a read's path; the
    /// residual is the end-to-end latency minus these.
    pub fn on_read_path(self) -> bool {
        !matches!(
            self,
            Layer::Request
                | Layer::EvalMaterialize
                | Layer::EditApply
                | Layer::EngineLoad
                | Layer::EngineRemove
        )
    }
}

const NO_PARENT: u32 = u32::MAX;

struct Span {
    layer: Layer,
    parent: u32,
    req: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans when on; when off, [`Tracer::begin`] and
/// [`Tracer::end`] read no clock and store nothing, so the same replay
/// code runs untraced.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    req: u32,
}

/// An open span; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(u32);

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Spans begun from here on belong to request `req`.
    pub fn set_request(&mut self, req: u32) {
        self.req = req;
    }

    pub fn begin(&mut self, layer: Layer) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now();
        self.spans.push(Span {
            layer,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            req: self.req,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Open(id)
    }

    pub fn end(&mut self, span: Open) {
        if !self.on {
            return;
        }
        let end_ns = self.now();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(span.0), "spans close innermost first");
        self.spans[span.0 as usize].end_ns = end_ns;
    }

    /// Per request, each layer's self time (its spans' durations minus
    /// the time their child spans cover) and span count.
    pub fn self_times(&self, requests: usize) -> Vec<LayerTimes> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = vec![LayerTimes::default(); requests];
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = &mut out[s.req as usize];
            let i = s.layer.index();
            t.self_ns[i] += (s.end_ns - s.start_ns).saturating_sub(child);
            t.count[i] += 1;
        }
        out
    }

    /// Write every span as one tab-separated line: request, span id,
    /// parent id (`-` for none), layer, start and end in nanoseconds.
    pub fn write_tsv(&self, w: &mut impl Write) -> std::io::Result<()> {
        writeln!(w, "req\tid\tparent\tlayer\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{}\t{id}\t{parent}\t{}\t{}\t{}",
                s.req,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

#[derive(Clone, Copy, Default)]
pub struct LayerTimes {
    pub self_ns: [u64; LAYERS.len()],
    pub count: [u32; LAYERS.len()],
}

impl LayerTimes {
    pub fn ns(&self, l: Layer) -> u64 {
        self.self_ns[l.index()]
    }

    pub fn has(&self, l: Layer) -> bool {
        self.count[l.index()] > 0
    }

    /// Self time of the layers on a read's server path.
    pub fn on_path_ns(&self) -> u64 {
        LAYERS
            .iter()
            .filter(|l| l.on_read_path())
            .map(|&l| self.ns(l))
            .sum()
    }
}
