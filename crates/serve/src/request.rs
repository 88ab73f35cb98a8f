//! Requests, responses and the unified payload vocabulary.
//!
//! One runtime serves four heterogeneous workloads, so payloads and
//! outputs are closed enums rather than generics: the scheduler can hold
//! mixed traffic in one trace, and rendering a response stream for the
//! byte-identical determinism check needs a single exhaustive format.

use enw_recsys::trace::SparseQuery;

/// What a request carries to its backend.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A dense feature vector (crossbar / digital MLP input, or a TCAM
    /// few-shot query embedding).
    Features(Vec<f32>),
    /// A DLRM-style recommendation query (dense + multi-hot sparse).
    Rec(SparseQuery),
}

impl Payload {
    /// The dense feature view, when this payload has one.
    pub fn features(&self) -> Option<&[f32]> {
        match self {
            Payload::Features(v) => Some(v),
            Payload::Rec(_) => None,
        }
    }

    /// The recommendation query, when this payload is one.
    pub fn rec_query(&self) -> Option<&SparseQuery> {
        match self {
            Payload::Rec(q) => Some(q),
            Payload::Features(_) => None,
        }
    }
}

/// What a backend computes for one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// Raw output scores of an MLP forward pass.
    Scores(Vec<f32>),
    /// Retrieved class label from a TCAM memory search (`None` when the
    /// memory is empty).
    Label(Option<usize>),
    /// Predicted click-through rate.
    Ctr(f32),
}

/// One admitted unit of work.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Trace-unique id (also the tie-break key for rendering).
    pub id: u64,
    /// Index of the station (backend lane) this request targets.
    pub station: usize,
    /// Input data.
    pub payload: Payload,
    /// Arrival instant on the virtual clock.
    pub arrival_ns: u64,
    /// Absolute deadline; the response is late past this instant.
    pub deadline_ns: u64,
}

/// How a request left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served within its deadline.
    Completed,
    /// Served, but past its deadline (counts toward degradation).
    DeadlineMiss,
    /// Dropped at batch close because its deadline had already passed.
    Shed,
    /// Refused at admission: the station queue was full (backpressure).
    Rejected,
}

impl Outcome {
    /// Stable short name used in rendered response streams.
    pub fn tag(&self) -> &'static str {
        match self {
            Outcome::Completed => "ok",
            Outcome::DeadlineMiss => "late",
            Outcome::Shed => "shed",
            Outcome::Rejected => "rejected",
        }
    }
}

/// The terminal record for one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Id of the originating request.
    pub id: u64,
    /// Station that owned the request.
    pub station: usize,
    /// How the request left the system.
    pub outcome: Outcome,
    /// Backend output (present only for served requests).
    pub output: Option<Output>,
    /// Arrival instant of the originating request.
    pub arrival_ns: u64,
    /// Instant the response was produced (equals `arrival_ns` for
    /// rejections, the batch-close instant for sheds).
    pub finish_ns: u64,
}

impl Response {
    /// Served latency; zero for requests that never ran.
    pub fn latency_ns(&self) -> u64 {
        self.finish_ns.saturating_sub(self.arrival_ns)
    }
}

/// Renders a response stream to a canonical byte-exact text form: floats
/// are printed as IEEE-754 bit patterns, so two streams compare equal iff
/// every numeric output is bit-identical.
///
/// One line per response, `id=<id> st=<station> <tag> t=<finish>
/// lat=<latency>` and then ` out=-`, ` out=scores:` with `<8 hex>,` per
/// score, ` out=label:<class>` (or `-`), or ` out=ctr:<8 hex>`. The text is
/// sized first and written into one buffer of exactly that length: one
/// allocation per call, whatever the stream holds.
#[expect(clippy::expect_used, reason = "every byte written is ASCII")]
pub fn render_responses(responses: &[Response]) -> String {
    let len = responses.iter().map(rendered_len).sum();
    let mut buf = vec![0u8; len];
    let mut out = Cursor { buf: &mut buf, pos: 0 };
    for r in responses {
        out.response(r);
    }
    debug_assert_eq!(out.pos, len, "rendered_len disagrees with Cursor::response");
    String::from_utf8(buf).expect("rendered responses are ASCII")
}

/// The bytes [`Cursor::response`] writes for `r`.
fn rendered_len(r: &Response) -> usize {
    // `id=`, ` st=`, ` `, ` t=`, ` lat=` and the newline.
    let fixed = 3 + 4 + 1 + 3 + 5 + 1;
    let head = fixed
        + dec_len(r.id)
        + dec_len(r.station as u64)
        + r.outcome.tag().len()
        + dec_len(r.finish_ns)
        + dec_len(r.latency_ns());
    head + match &r.output {
        None => " out=-".len(),
        Some(Output::Scores(v)) => " out=scores:".len() + 9 * v.len(),
        Some(Output::Label(Some(c))) => " out=label:".len() + dec_len(*c as u64),
        Some(Output::Label(None)) => " out=label:-".len(),
        Some(Output::Ctr(_)) => " out=ctr:".len() + 8,
    }
}

/// Decimal digits of `v`.
fn dec_len(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// `"00"` to `"99"`, two bytes each.
const DEC_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Every byte as two lower-case hex digits.
static HEX_PAIRS: [[u8; 2]; 256] = {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut t = [[0u8; 2]; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = [DIGITS[i >> 4], DIGITS[i & 0xf]];
        i += 1;
    }
    t
};

/// A write position in a buffer sized by [`rendered_len`].
struct Cursor<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl Cursor<'_> {
    /// Writes the line of `r`.
    fn response(&mut self, r: &Response) {
        self.put(b"id=");
        self.dec(r.id);
        self.put(b" st=");
        self.dec(r.station as u64);
        self.put(b" ");
        self.put(r.outcome.tag().as_bytes());
        self.put(b" t=");
        self.dec(r.finish_ns);
        self.put(b" lat=");
        self.dec(r.latency_ns());
        match &r.output {
            None => self.put(b" out=-"),
            Some(Output::Scores(v)) => {
                self.put(b" out=scores:");
                for x in v {
                    self.hex8(x.to_bits());
                    self.put(b",");
                }
            }
            Some(Output::Label(Some(c))) => {
                self.put(b" out=label:");
                self.dec(*c as u64);
            }
            Some(Output::Label(None)) => self.put(b" out=label:-"),
            Some(Output::Ctr(p)) => {
                self.put(b" out=ctr:");
                self.hex8(p.to_bits());
            }
        }
        self.put(b"\n");
    }

    fn put(&mut self, bytes: &[u8]) {
        self.buf[self.pos..self.pos + bytes.len()].copy_from_slice(bytes);
        self.pos += bytes.len();
    }

    /// `v` in decimal, as `{}` prints it: two digits at a time from the
    /// right.
    fn dec(&mut self, mut v: u64) {
        let end = self.pos + dec_len(v);
        let digits = &mut self.buf[self.pos..end];
        let mut i = digits.len();
        while v >= 100 {
            let d = 2 * (v % 100) as usize;
            v /= 100;
            i -= 2;
            digits[i..i + 2].copy_from_slice(&DEC_PAIRS[d..d + 2]);
        }
        if v >= 10 {
            let d = 2 * v as usize;
            digits[i - 2..i].copy_from_slice(&DEC_PAIRS[d..d + 2]);
        } else {
            digits[i - 1] = b'0' + v as u8;
        }
        self.pos = end;
    }

    /// `bits` as eight lower-case hex digits, as `{:08x}` prints it.
    fn hex8(&mut self, bits: u32) {
        for byte in bits.to_be_bytes() {
            self.put(&HEX_PAIRS[byte as usize]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enw_numerics::rng::Rng64;

    /// The renderer's former body, one `format!` per field and score.
    fn formatted(responses: &[Response]) -> String {
        let mut s = String::new();
        for r in responses {
            s.push_str(&format!(
                "id={} st={} {} t={} lat={}",
                r.id,
                r.station,
                r.outcome.tag(),
                r.finish_ns,
                r.latency_ns()
            ));
            match &r.output {
                None => s.push_str(" out=-"),
                Some(Output::Scores(v)) => {
                    s.push_str(" out=scores:");
                    for x in v {
                        s.push_str(&format!("{:08x},", x.to_bits()));
                    }
                }
                Some(Output::Label(l)) => match l {
                    Some(c) => s.push_str(&format!(" out=label:{c}")),
                    None => s.push_str(" out=label:-"),
                },
                Some(Output::Ctr(p)) => s.push_str(&format!(" out=ctr:{:08x}", p.to_bits())),
            }
            s.push('\n');
        }
        s
    }

    /// Float bit patterns a renderer could mishandle: NaNs, both zeros,
    /// subnormals, both infinities and the extremes of the digit range.
    const EDGE_BITS: [u32; 10] = [
        0x7fc0_0000, // quiet NaN
        0xffff_ffff, // NaN, every bit set
        0x8000_0000, // -0.0
        0x0000_0000,
        0x0000_0001, // smallest subnormal
        0x807f_ffff, // largest negative subnormal
        0x7f80_0000, // +inf
        0xff80_0000, // -inf
        0x0000_0010, // leading zero digits
        0x3e80_0000, // 0.25
    ];

    /// Edge values of every field, then `count` random responses.
    fn responses(count: usize, rng: &mut Rng64) -> Vec<Response> {
        let mk = |id, station, outcome, output, arrival_ns, finish_ns| Response {
            id,
            station,
            outcome,
            output,
            arrival_ns,
            finish_ns,
        };
        let f = f32::from_bits;
        let mut v = vec![
            mk(0, 0, Outcome::Completed, None, 0, 0),
            mk(u64::MAX, usize::MAX, Outcome::DeadlineMiss, None, 0, u64::MAX),
            // The latency saturates to zero when the finish precedes
            // the arrival.
            mk(9, 1, Outcome::Shed, None, u64::MAX, 3),
            mk(10, 2, Outcome::Completed, Some(Output::Label(None)), 1, 2),
            mk(11, 2, Outcome::Completed, Some(Output::Label(Some(usize::MAX))), 1, 2),
            mk(12, 2, Outcome::Completed, Some(Output::Label(Some(0))), 1, 2),
            mk(13, 0, Outcome::Rejected, Some(Output::Scores(Vec::new())), 5, 5),
            mk(14, 0, Outcome::Completed, Some(Output::Scores(EDGE_BITS.map(f).to_vec())), 5, 9),
        ];
        v.extend(EDGE_BITS.map(|b| mk(15, 3, Outcome::Completed, Some(Output::Ctr(f(b))), 7, 8)));
        let outcomes =
            [Outcome::Completed, Outcome::DeadlineMiss, Outcome::Shed, Outcome::Rejected];
        // Every bit length up to 64, so every decimal width up to 20.
        let wide = |rng: &mut Rng64| rng.next_u64() >> rng.below(64);
        let bits = |rng: &mut Rng64| rng.next_u64() as u32;
        for _ in 0..count {
            let output = match rng.below(5) {
                0 => None,
                1 => Some(Output::Scores((0..rng.below(11)).map(|_| f(bits(rng))).collect())),
                2 => Some(Output::Label((rng.below(4) > 0).then(|| wide(rng) as usize))),
                _ => Some(Output::Ctr(f(bits(rng)))),
            };
            let (arrival_ns, finish_ns) = (wide(rng), wide(rng));
            let (id, station) = (wide(rng), wide(rng) as usize);
            v.push(mk(id, station, outcomes[rng.below(4)], output, arrival_ns, finish_ns));
        }
        v
    }

    #[test]
    fn rendering_matches_the_formatting_oracle_in_one_exact_buffer() {
        let mut rng = Rng64::new(45);
        let all = responses(2000, &mut rng);
        for r in &all {
            let text = render_responses(std::slice::from_ref(r));
            assert_eq!(text, formatted(std::slice::from_ref(r)), "{r:?}");
            assert_eq!(text.capacity(), text.len(), "{r:?}");
        }
        let text = render_responses(&all);
        assert_eq!(text, formatted(&all));
        assert_eq!(text.capacity(), text.len());
        assert_eq!(render_responses(&[]), "");
    }

    #[test]
    fn payload_views_are_exclusive() {
        let f = Payload::Features(vec![1.0, 2.0]);
        assert!(f.features().is_some());
        assert!(f.rec_query().is_none());
        let q = Payload::Rec(SparseQuery { dense: vec![0.5], sparse: vec![vec![1]] });
        assert!(q.features().is_none());
        assert!(q.rec_query().is_some());
    }

    #[test]
    fn latency_is_zero_for_unserved() {
        let r = Response {
            id: 1,
            station: 0,
            outcome: Outcome::Rejected,
            output: None,
            arrival_ns: 50,
            finish_ns: 50,
        };
        assert_eq!(r.latency_ns(), 0);
    }

    #[test]
    fn rendering_is_bit_exact() {
        let mk = |x: f32| Response {
            id: 7,
            station: 2,
            outcome: Outcome::Completed,
            output: Some(Output::Ctr(x)),
            arrival_ns: 10,
            finish_ns: 35,
        };
        let a = render_responses(&[mk(0.25)]);
        let b = render_responses(&[mk(0.25)]);
        assert_eq!(a, b);
        let c = render_responses(&[mk(0.25 + 1e-7)]);
        assert_ne!(a, c, "different bits must render differently");
        assert!(a.contains("id=7 st=2 ok t=35 lat=25"));
    }

    #[test]
    fn outcome_tags_are_stable() {
        assert_eq!(Outcome::Completed.tag(), "ok");
        assert_eq!(Outcome::DeadlineMiss.tag(), "late");
        assert_eq!(Outcome::Shed.tag(), "shed");
        assert_eq!(Outcome::Rejected.tag(), "rejected");
    }
}
