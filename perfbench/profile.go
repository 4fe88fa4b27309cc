package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile of the benchmark's own process (runtime/pprof) is read
// back here with a small decoder of the profile.proto fields it needs:
// each sample's stack of location ids and its value, each location's
// (inlined) functions, and the function-name string table. The
// standard library writes the format but has no reader.

// sample is one profile sample: its stack as function names, leaf
// first (inlined frames expanded), and its weight (CPU nanoseconds).
type sample struct {
	stack []string
	value int64
}

// gcRoots are the runtime entry points whose samples are garbage
// collection work: background marking, mark assists charged to
// allocating goroutines, and background sweeping and scavenging.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// moduleOf maps a function name to the layer it belongs to: the path
// under repro/internal/ for the program's packages ("tlb", "sim",
// "policies/fifoevict"), "mosaic" for the root package, and the import
// path for everything else ("runtime", "net/http").
func moduleOf(fn string) string {
	s := fn
	if i := strings.IndexAny(s, "[("); i >= 0 {
		s = s[:i] // generic shapes and method receivers follow the package
	}
	slash := strings.LastIndex(s, "/")
	pkg := s
	if dot := strings.Index(s[slash+1:], "."); dot >= 0 {
		pkg = s[:slash+1+dot]
	}
	switch {
	case pkg == "repro":
		return "mosaic"
	case strings.HasPrefix(pkg, "repro/internal/"):
		return strings.TrimPrefix(pkg, "repro/internal/")
	case strings.HasPrefix(pkg, "repro/"):
		return strings.TrimPrefix(pkg, "repro/")
	}
	return pkg
}

// attribution is a profile reduced to shares of total sample weight.
type attribution struct {
	// self maps a module to its share of self (leaf-frame) weight.
	self map[string]float64
	// gc is the share of weight under a gcRoots frame.
	gc float64
	// total is the summed weight of every sample.
	total int64
}

// attribute charges each sample's weight to the module of its leaf
// frame and, separately, to garbage collection when any frame of its
// stack is a gcRoots entry point.
func attribute(samples []sample) attribution {
	a := attribution{self: map[string]float64{}}
	byMod := map[string]int64{}
	var gc int64
	for _, s := range samples {
		if len(s.stack) == 0 || s.value <= 0 {
			continue
		}
		a.total += s.value
		byMod[moduleOf(s.stack[0])] += s.value
		for _, fn := range s.stack {
			if isGCRoot(fn) {
				gc += s.value
				break
			}
		}
	}
	if a.total == 0 {
		return a
	}
	for m, v := range byMod {
		a.self[m] = float64(v) / float64(a.total)
	}
	a.gc = float64(gc) / float64(a.total)
	return a
}

func isGCRoot(fn string) bool {
	for _, r := range gcRoots {
		if fn == r {
			return true
		}
	}
	return false
}

// parseProfile decodes a gzipped (or raw) profile.proto message into
// samples weighted by their last value (CPU nanoseconds for a CPU
// profile; the only value when a profile has one).
func parseProfile(data []byte) ([]sample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		raws   []rawSample
		locFns = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName = map[uint64]int64{}    // function id -> string index
		strtab []string
	)
	err := walkFields(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var rs rawSample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(w, v, b, func(x uint64) { rs.locs = append(rs.locs, x) })
				case 2:
					return appendVarints(w, v, b, func(x uint64) { rs.values = append(rs.values, int64(x)) })
				}
				return nil
			})
			raws = append(raws, rs)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(raws))
	for _, rs := range raws {
		if len(rs.values) == 0 {
			continue
		}
		s := sample{value: rs.values[len(rs.values)-1]}
		for _, loc := range rs.locs {
			for _, fid := range locFns[loc] {
				idx := fnName[fid]
				if idx < 0 || int(idx) >= len(strtab) {
					return nil, fmt.Errorf("profile: function %d names string %d of %d", fid, idx, len(strtab))
				}
				s.stack = append(s.stack, strtab[idx])
			}
		}
		out = append(out, s)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// walkFields calls fn for each field of one protobuf message: varints
// (wire type 0) arrive in v, length-delimited fields (wire type 2) in
// b; fixed-width fields are skipped.
func walkFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated varint field in either encoding: one
// value per field (wire type 0) or a packed run (wire type 2).
func appendVarints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		b = b[n:]
	}
	return nil
}
