package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof writes:
// just enough to walk each CPU sample's stack as function names, leaf first.
// It exists so the per-layer CPU shares need neither `go tool pprof` at run
// time nor a module dependency.

var errProto = errors.New("pprof: malformed profile")

// pbuf is a protobuf wire-format cursor.
type pbuf []byte

func (b *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(*b) == 0 {
			return 0, errProto
		}
		c := (*b)[0]
		*b = (*b)[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// field reads one field: its number, and either the varint value (wire type
// 0) or the payload bytes (wire type 2). Fixed-width fields are skipped.
func (b *pbuf) field() (num int, v uint64, payload pbuf, err error) {
	key, err := b.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = b.varint()
	case 1:
		err = b.skip(8)
	case 5:
		err = b.skip(4)
	case 2:
		var n uint64
		if n, err = b.varint(); err == nil {
			if n > uint64(len(*b)) {
				return 0, 0, nil, errProto
			}
			payload = (*b)[:n]
			*b = (*b)[n:]
		}
	default:
		err = errProto
	}
	return num, v, payload, err
}

func (b *pbuf) skip(n int) error {
	if len(*b) < n {
		return errProto
	}
	*b = (*b)[n:]
	return nil
}

// uints appends a repeated integer field's values, packed or not.
func uints(dst []uint64, v uint64, payload pbuf) ([]uint64, error) {
	if payload == nil {
		return append(dst, v), nil
	}
	for len(payload) > 0 {
		x, err := payload.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// cpuSample is one stack with its sample count.
type cpuSample struct {
	stack []string // function names, leaf first, inlined frames expanded
	count int64
}

// parseCPUProfile decodes a gzipped CPU profile into stacks of names.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		strs    []string
		fnName  = map[uint64]uint64{}   // function id -> string index
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		samples []rawSample
	)
	for b := pbuf(raw); len(b) > 0; {
		num, _, msg, err := b.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample{location_id = 1, value = 2}
			var s rawSample
			var vals []uint64
			for len(msg) > 0 {
				n, v, p, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = uints(s.locs, v, p)
				case 2:
					vals, err = uints(vals, v, p)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(vals) > 0 {
				s.count = int64(vals[0]) // CPU profiles: [samples, nanoseconds]
			}
			samples = append(samples, s)
		case 4: // Location{id = 1, line = 4{function_id = 1}}
			var id uint64
			var fns []uint64
			for len(msg) > 0 {
				n, v, p, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4:
					for len(p) > 0 {
						ln, lv, _, err := p.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFns[id] = fns
		case 5: // Function{id = 1, name = 2}
			var id, name uint64
			for len(msg) > 0 {
				n, v, _, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(msg))
		}
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		cs := cpuSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					cs.stack = append(cs.stack, strs[i])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

const layerPrefix = "pert/internal/"

// layerOf names the repo layer a function belongs to ("sim", "netem", ...),
// or "" for functions outside pert/internal.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, layerPrefix) {
		return ""
	}
	rest := fn[len(layerPrefix):]
	if i := strings.IndexAny(rest, "./"); i > 0 {
		return rest[:i]
	}
	return ""
}

// cpuShares attributes every sample to the innermost pert/internal/<pkg>
// frame on its stack and returns each layer's share of all samples, plus two
// overlapping runtime views: "runtime.gc" (collector work, background or
// assist) and "runtime.malloc" (any stack passing through mallocgc).
func cpuShares(samples []cpuSample) (shares map[string]float64, total int64) {
	counts := map[string]int64{}
	for _, s := range samples {
		total += s.count
		layer := ""
		gc, malloc := false, false
		for _, fn := range s.stack {
			if layer == "" {
				layer = layerOf(fn)
			}
			if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
				strings.HasPrefix(fn, "runtime.bgscavenge") {
				gc = true
			}
			if strings.HasPrefix(fn, "runtime.mallocgc") {
				malloc = true
			}
		}
		if layer != "" {
			counts[layer] += s.count
		}
		if gc {
			counts["runtime.gc"] += s.count
		}
		if malloc {
			counts["runtime.malloc"] += s.count
		}
	}
	shares = map[string]float64{}
	if total > 0 {
		for k, c := range counts {
			shares[k] = float64(c) / float64(total)
		}
	}
	return shares, total
}
