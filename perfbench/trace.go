package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// span is one timed interval of a traced operation. Spans of one operation
// share Op; Parent is the enclosing span's ID (0 for an operation's root).
type span struct {
	Op      int64  `json:"op"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. It is used
// from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(op, parent int64, name string) int64 {
	t.next++
	t.spans = append(t.spans, span{Op: op, ID: t.next, Parent: parent, Name: name, StartNS: int64(time.Since(t.t0))})
	return t.next
}

func (t *tracer) end(id int64) {
	// Spans close in LIFO order, so the one to close is near the end.
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].ID == id {
			t.spans[i].EndNS = int64(time.Since(t.t0))
			return
		}
	}
}

// do runs fn inside a span.
func (t *tracer) do(op, parent int64, name string, fn func()) {
	id := t.begin(op, parent, name)
	fn()
	t.end(id)
}

// layerTime is the self time of every span with one name, and how many
// operations reached it.
type layerTime struct {
	self time.Duration
	ops  map[int64]bool
}

// meanMS is the self time per operation that reached the layer, in ms.
func (l *layerTime) meanMS() float64 {
	if l == nil || len(l.ops) == 0 {
		return 0
	}
	return float64(l.self) / float64(time.Millisecond) / float64(len(l.ops))
}

// selfTimes aggregates spans by name: a span's self time is its duration
// minus the durations of its direct children.
func selfTimes(spans []span) map[string]*layerTime {
	childTime := make(map[int64]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			childTime[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{ops: make(map[int64]bool)}
			out[s.Name] = lt
		}
		lt.self += time.Duration(s.EndNS - s.StartNS - childTime[s.ID])
		lt.ops[s.Op] = true
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuPackages are the packages a CPU profile is split into, by the metric
// name suffix: flat CPU of functions in liquid/internal/<name>, plus
// encoding/json as "json". "gc" is every sample whose stack runs through a
// garbage-collector worker or assist, whatever its leaf.
var cpuPackages = []string{"prob", "election", "mechanism", "core", "graph", "rng", "server", "scale", "json", "gc"}

// gcRoots mark a sample as garbage-collection work.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkTermination"}

// packageOf maps a profiled function name to its cpuPackages bucket, or ""
// for everything else (runtime, net/http, ...).
func packageOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "liquid/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return ""
	}
	if strings.HasPrefix(fn, "encoding/json.") {
		return "json"
	}
	return ""
}

// cpuByPackage decodes a gzipped pprof CPU profile and returns the CPU
// seconds per cpuPackages bucket.
func cpuByPackage(gz []byte) (map[string]float64, error) {
	p, err := parseProfileGz(gz)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, s := range p.samples {
		if len(s.locs) == 0 || p.valueIndex >= len(s.values) {
			continue
		}
		secs := float64(s.values[p.valueIndex]) / 1e9
		bucket := ""
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				for _, root := range gcRoots {
					if fn == root {
						bucket = "gc"
					}
				}
			}
		}
		if bucket == "" {
			if fns := p.locFuncs[s.locs[0]]; len(fns) > 0 {
				bucket = packageOf(fns[0])
			}
		}
		if bucket != "" {
			out[bucket] += secs
		}
	}
	return out, nil
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	samples    []profSample
	locFuncs   map[uint64][]string // location id -> function names, leaf first
	valueIndex int                 // index of the cpu/nanoseconds value
}

type profSample struct {
	locs   []uint64
	values []int64
}

// parseProfileGz decodes a profile as pprof writes it: gzipped protobuf.
func parseProfileGz(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return parseProfile(raw)
}

// parseProfile decodes the protobuf encoding of a pprof profile
// (github.com/google/pprof/proto/profile.proto): sample_type = 1,
// sample = 2, location = 4, function = 5, string_table = 6.
func parseProfile(raw []byte) (*profile, error) {
	var (
		sampleTypes [][2]int64 // (type, unit) string indexes
		samples     []profSample
		locLines    = make(map[uint64][]uint64) // location -> function ids
		funcNames   = make(map[uint64]int64)    // function -> name string index
		strs        []string
	)
	err := forFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1:
			var t [2]int64
			err := forFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					t[f-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, t)
			return err
		case 2:
			var s profSample
			err := forFields(b, func(f, w int, v uint64, pb []byte) error {
				switch f {
				case 1:
					return forVarints(w, v, pb, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return forVarints(w, v, pb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := forFields(b, func(f, _ int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return forFields(lb, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := forFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i >= 0 && i < int64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &profile{samples: samples, locFuncs: make(map[uint64][]string), valueIndex: -1}
	for i, t := range sampleTypes {
		if str(t[0]) == "cpu" && str(t[1]) == "nanoseconds" {
			p.valueIndex = i
		}
	}
	if p.valueIndex < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	for loc, fns := range locLines {
		for _, f := range fns {
			p.locFuncs[loc] = append(p.locFuncs[loc], str(funcNames[f]))
		}
	}
	return p, nil
}

// forFields walks the fields of one protobuf message. For varint fields fn
// gets the value; for length-delimited fields, the bytes.
func forFields(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// forVarints yields a repeated varint field in either encoding: one value
// (wire type 0) or a packed run (wire type 2).
func forVarints(wire int, v uint64, packed []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		packed = packed[n:]
	}
	return nil
}
