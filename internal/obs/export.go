package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// maxSeconds bounds parseable timestamps to what fits in sim.Time (int64
// nanoseconds); beyond that a timestamp cannot correspond to any simulated
// instant and almost certainly indicates a corrupt file.
const maxSeconds = float64(math.MaxInt64) / 1e9

// SeriesWriter streams points to an io.Writer in JSONL (one
// {"t":...,"series":"...","v":...} object per line) or CSV (header
// "t_s,series,value") form. Values are formatted with the shortest exact
// float64 representation, so a write/read round trip reproduces points
// bit-for-bit. Output is buffered; call Flush when done (Registry.Close does
// this for attached sinks). Write errors are sticky: the first one is kept,
// later Records are dropped, and both Flush and Err report it.
type SeriesWriter struct {
	w           *bufio.Writer
	csv         bool
	err         error
	wroteHeader bool
	buf         []byte

	// A sampling tick records every series at one instant, so the
	// timestamp's text is kept and reused while T repeats: shortest-float
	// formatting is the dearest step of a Record.
	tText  []byte
	tValue float64
}

// NewJSONLWriter returns a SeriesWriter emitting JSON Lines.
func NewJSONLWriter(w io.Writer) *SeriesWriter {
	return &SeriesWriter{w: bufio.NewWriter(w)}
}

// NewCSVWriter returns a SeriesWriter emitting CSV with a t_s,series,value
// header.
func NewCSVWriter(w io.Writer) *SeriesWriter {
	return &SeriesWriter{w: bufio.NewWriter(w), csv: true}
}

// Record writes one point. Series names must satisfy CheckName (registries
// enforce this at registration); names that don't are dropped into the
// sticky error rather than corrupting the stream.
func (sw *SeriesWriter) Record(p Point) {
	if sw == nil || sw.err != nil {
		return
	}
	if err := CheckName(p.Series); err != nil {
		sw.err = fmt.Errorf("obs: refusing to export point: %v", err)
		return
	}
	b := sw.buf[:0]
	if sw.csv {
		if !sw.wroteHeader {
			sw.wroteHeader = true
			b = append(b, "t_s,series,value\n"...)
		}
		b = append(b, sw.timeText(p.T)...)
		b = append(b, ',')
		b = append(b, p.Series...)
		b = append(b, ',')
		b = appendValue(b, p.Value)
		b = append(b, '\n')
	} else {
		b = append(b, `{"t":`...)
		b = append(b, sw.timeText(p.T)...)
		b = append(b, `,"series":"`...)
		b = append(b, p.Series...) // CheckName guarantees no JSON metacharacters
		b = append(b, `","v":`...)
		b = appendValue(b, p.Value)
		b = append(b, "}\n"...)
	}
	sw.buf = b
	if _, err := sw.w.Write(b); err != nil {
		sw.err = err
	}
}

// appendValue appends v in the shortest exact representation — what
// strconv's 'g' format with precision -1 prints. Counters, queue lengths and
// state flags are small integers, which that format prints as plain digits
// below 1e6; those skip the shortest-float search.
func appendValue(b []byte, v float64) []byte {
	if -1e6 < v && v < 1e6 {
		if i := int64(v); float64(i) == v && (i != 0 || !math.Signbit(v)) {
			return strconv.AppendInt(b, i, 10)
		}
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// timeText returns t in the shortest exact representation.
func (sw *SeriesWriter) timeText(t float64) []byte {
	if len(sw.tText) == 0 || t != sw.tValue {
		sw.tText = strconv.AppendFloat(sw.tText[:0], t, 'g', -1, 64)
		sw.tValue = t
	}
	return sw.tText
}

// Flush drains the buffer and returns the sticky error, if any.
func (sw *SeriesWriter) Flush() error {
	if sw == nil {
		return nil
	}
	if sw.err != nil {
		return sw.err
	}
	sw.err = sw.w.Flush()
	return sw.err
}

// Err returns the sticky write error, if any.
func (sw *SeriesWriter) Err() error {
	if sw == nil {
		return nil
	}
	return sw.err
}

// checkPoint validates a parsed point the same way ReadTrace validates trace
// events: timestamps must be finite, non-negative, and representable as sim
// time; values must be finite (the writer never emits non-finite values);
// series names must satisfy CheckName.
func checkPoint(p Point) error {
	if math.IsNaN(p.T) || math.IsInf(p.T, 0) {
		return fmt.Errorf("non-finite time")
	}
	if p.T < 0 {
		return fmt.Errorf("negative time %v", p.T)
	}
	if p.T > maxSeconds {
		return fmt.Errorf("time %g overflows the simulator clock", p.T)
	}
	if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
		return fmt.Errorf("non-finite value")
	}
	if err := CheckName(p.Series); err != nil {
		return err
	}
	return nil
}

// parseFloat parses a strict float64: no leading/trailing junk, and the
// empty string is rejected.
func parseFloat(s, what string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", what, s)
	}
	return v, nil
}

// ReadJSONL parses a JSONL series stream produced by NewJSONLWriter. It is
// deliberately strict — unknown shapes, missing fields, non-finite or
// overflowing timestamps, and truncated lines are errors with line numbers —
// because a series file is evidence from a run and silent coercion would
// hide corruption.
func ReadJSONL(r io.Reader) ([]Point, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Point
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		p, err := parseJSONLLine(text)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %v", line, err)
		}
		if err := checkPoint(p); err != nil {
			return nil, fmt.Errorf("obs: line %d: %v", line, err)
		}
		out = append(out, p)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: %v", err)
	}
	return out, nil
}

// parseJSONLLine parses exactly the object shape the writer emits:
// {"t":<num>,"series":"<name>","v":<num>}. A hand-rolled parser keeps the
// accepted grammar identical to the emitted one (encoding/json would accept
// many shapes the writer never produces, silently defaulting missing
// fields).
func parseJSONLLine(s string) (Point, error) {
	var p Point
	rest, ok := strings.CutPrefix(s, `{"t":`)
	if !ok {
		return p, fmt.Errorf("malformed record %q", s)
	}
	tStr, rest, ok := strings.Cut(rest, `,"series":"`)
	if !ok {
		return p, fmt.Errorf("truncated record %q", s)
	}
	name, rest, ok := strings.Cut(rest, `","v":`)
	if !ok {
		return p, fmt.Errorf("truncated record %q", s)
	}
	vStr, ok := strings.CutSuffix(rest, "}")
	if !ok {
		return p, fmt.Errorf("truncated record %q", s)
	}
	var err error
	if p.T, err = parseFloat(tStr, "time"); err != nil {
		return p, err
	}
	if p.Value, err = parseFloat(vStr, "value"); err != nil {
		return p, err
	}
	p.Series = name
	return p, nil
}

// ReadCSV parses a CSV series stream produced by NewCSVWriter. The header
// line is required; field counts and every field are validated with
// line-numbered errors, mirroring ReadJSONL.
func ReadCSV(r io.Reader) ([]Point, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Point
	line := 0
	sawHeader := false
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if !sawHeader {
			if text != "t_s,series,value" {
				return nil, fmt.Errorf("obs: line %d: missing t_s,series,value header (got %q)", line, text)
			}
			sawHeader = true
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) != 3 {
			return nil, fmt.Errorf("obs: line %d: want 3 fields, got %d", line, len(fields))
		}
		var p Point
		var err error
		if p.T, err = parseFloat(fields[0], "time"); err != nil {
			return nil, fmt.Errorf("obs: line %d: %v", line, err)
		}
		p.Series = fields[1]
		if p.Value, err = parseFloat(fields[2], "value"); err != nil {
			return nil, fmt.Errorf("obs: line %d: %v", line, err)
		}
		if err := checkPoint(p); err != nil {
			return nil, fmt.Errorf("obs: line %d: %v", line, err)
		}
		out = append(out, p)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: %v", err)
	}
	return out, nil
}
