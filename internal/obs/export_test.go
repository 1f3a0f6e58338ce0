package obs

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// roundTripPoints exercises both export formats with awkward-but-legal
// values; the shortest-float formatting must reproduce every point exactly.
var roundTripPoints = []Point{
	{T: 0, Series: "queue.len", Value: 0},
	{T: 0.1, Series: "queue.len", Value: 17},
	{T: 1.0 / 3.0, Series: "tcp/0.cwnd", Value: 12.000000000000002},
	{T: 59.99999999, Series: "tcp/0.pert.prob", Value: 0.049999999999999996},
	{T: 1e-9, Series: "a", Value: -1e-300},
	{T: maxSeconds * 0.999, Series: "b_c-d.e", Value: math.MaxFloat64},
	{T: 123456.789, Series: "rtt.p99", Value: math.SmallestNonzeroFloat64},
	{T: 2, Series: "neg", Value: -123456789.123456789},
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sw := NewJSONLWriter(&buf)
	for _, p := range roundTripPoints {
		sw.Record(p)
	}
	if err := sw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	comparePoints(t, got, roundTripPoints)
}

func TestCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sw := NewCSVWriter(&buf)
	for _, p := range roundTripPoints {
		sw.Record(p)
	}
	if err := sw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if !strings.HasPrefix(buf.String(), "t_s,series,value\n") {
		t.Fatalf("CSV missing header: %q", buf.String()[:40])
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	comparePoints(t, got, roundTripPoints)
}

func comparePoints(t *testing.T, got, want []Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("point %d: got %+v, want %+v (not bit-identical)", i, got[i], want[i])
		}
	}
}

func TestReadJSONLRejects(t *testing.T) {
	for _, tc := range []struct {
		name, in, wantErr string
	}{
		{"NaN time", `{"t":NaN,"series":"a","v":1}`, "non-finite time"},
		{"Inf time", `{"t":+Inf,"series":"a","v":1}`, "non-finite time"},
		{"Inf value", `{"t":1,"series":"a","v":Inf}`, "non-finite value"},
		{"negative time", `{"t":-1,"series":"a","v":1}`, "negative time"},
		{"overflow time", `{"t":1e300,"series":"a","v":1}`, "overflows the simulator clock"},
		{"truncated value", `{"t":1,"series":"a","v":`, "truncated"},
		{"truncated mid-name", `{"t":1,"series":"a`, "truncated"},
		{"no closing brace", `{"t":1,"series":"a","v":1`, "truncated"},
		{"wrong prefix", `{"time":1,"series":"a","v":1}`, "malformed"},
		{"empty name", `{"t":1,"series":"","v":1}`, "empty series name"},
		{"bad name", `{"t":1,"series":"a b","v":1}`, "series name"},
		{"junk after number", `{"t":1x,"series":"a","v":1}`, "bad time"},
		{"empty time", `{"t":,"series":"a","v":1}`, "bad time"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadJSONL(strings.NewReader(tc.in + "\n"))
			if err == nil {
				t.Fatalf("accepted %q", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
			if !strings.Contains(err.Error(), "line 1") {
				t.Fatalf("error %q lost the line number", err)
			}
		})
	}
}

func TestReadCSVRejects(t *testing.T) {
	const hdr = "t_s,series,value\n"
	for _, tc := range []struct {
		name, in, wantErr string
	}{
		{"missing header", "1,a,2\n", "missing t_s,series,value header"},
		{"NaN time", hdr + "NaN,a,1\n", "non-finite time"},
		{"negative time", hdr + "-1,a,1\n", "negative time"},
		{"overflow time", hdr + "1e300,a,1\n", "overflows"},
		{"Inf value", hdr + "1,a,Inf\n", "non-finite value"},
		{"two fields", hdr + "1,a\n", "want 3 fields"},
		{"four fields", hdr + "1,a,2,3\n", "want 3 fields"},
		{"bad name", hdr + `1,a"b,2` + "\n", "series name"},
		{"empty value", hdr + "1,a,\n", "bad value"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadCSV(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("accepted %q", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestReadersSkipBlankLines(t *testing.T) {
	pts, err := ReadJSONL(strings.NewReader("\n\n  \n" + `{"t":1,"series":"a","v":2}` + "\n\n"))
	if err != nil || len(pts) != 1 {
		t.Fatalf("JSONL blank-line handling: %v, %d points", err, len(pts))
	}
	pts, err = ReadCSV(strings.NewReader("\nt_s,series,value\n\n1,a,2\n\n"))
	if err != nil || len(pts) != 1 {
		t.Fatalf("CSV blank-line handling: %v, %d points", err, len(pts))
	}
}

func TestReaderErrorsCarryLineNumbers(t *testing.T) {
	in := `{"t":1,"series":"a","v":2}` + "\n" + `{"t":bad,"series":"a","v":2}` + "\n"
	_, err := ReadJSONL(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line 2 in error, got %v", err)
	}
	in = "t_s,series,value\n1,a,2\nnope\n"
	_, err = ReadCSV(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("want line 3 in error, got %v", err)
	}
}

// TestAppendValueMatchesStrconv: the integer fast path must print exactly
// what the shortest 'g' format prints, so series files stay byte-identical.
func TestAppendValueMatchesStrconv(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 7, 999999, -999999, 1e6, -1e6, 1e6 - 0.5,
		123456.5, 0.1, 1e-7, 1e15, 1e21, math.MaxInt64, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		vals = append(vals, float64(rng.Intn(4e6)-2e6), rng.NormFloat64()*1e3)
	}
	for _, v := range vals {
		want := strconv.AppendFloat(nil, v, 'g', -1, 64)
		if got := appendValue(nil, v); string(got) != string(want) {
			t.Fatalf("appendValue(%v) = %q, strconv prints %q", v, got, want)
		}
	}
}

// TestSeriesWriterRepeatedTimestamps: the cached timestamp text must track
// T across ticks and through a repeat of an earlier instant.
func TestSeriesWriterRepeatedTimestamps(t *testing.T) {
	var buf bytes.Buffer
	sw := NewJSONLWriter(&buf)
	in := []Point{{0, "a", 1}, {0, "b", 2}, {0.1, "a", 3}, {0.1, "b", 4}, {0, "a", 5}}
	for _, p := range in {
		sw.Record(p)
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip = %v, want %v", out, in)
	}
}
