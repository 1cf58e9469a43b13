package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes: just enough to attribute each sample's CPU time to the
// function it was running in (its leaf frame) and to see which
// functions are on its stack.

// profile is a decoded CPU profile: per-sample stacks as function
// names, leaf first, with the sample's CPU nanoseconds.
type profile struct {
	samples []profSample
}

type profSample struct {
	stack []string // leaf first, inlined frames expanded
	nanos int64
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string index
		strs      []string
	)
	err = eachField(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wt, v, b)
				case 2:
					for _, x := range appendPacked(nil, wt, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{nanos: s.values[len(s.values)-1]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i >= 0 && int(i) < len(strs) {
					ps.stack = append(ps.stack, strs[i])
				}
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// eachField walks one protobuf message. For varint fields fn gets v;
// for length-delimited fields it gets b.
func eachField(b []byte, fn func(num, wireType int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wt {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
		default:
			return errBadProto
		}
		if err := fn(num, wt, v, sub); err != nil {
			return err
		}
	}
	return nil
}

var errBadProto = errors.New("malformed profile")

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// appendPacked adds a repeated varint field's values, packed or not.
func appendPacked(dst []uint64, wt int, v uint64, b []byte) []uint64 {
	if wt == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// shares attributes each sample's CPU time to the first category
// classify names for it and returns each category's share of the total
// plus the total CPU time in nanoseconds.
func (p *profile) shares(categories []string, classify func(stack []string) string) (map[string]float64, int64) {
	out := make(map[string]float64, len(categories))
	for _, c := range categories {
		out[c] = 0
	}
	var total int64
	for _, s := range p.samples {
		total += s.nanos
		out[classify(s.stack)] += float64(s.nanos)
	}
	if total > 0 {
		for c := range out {
			out[c] /= float64(total)
		}
	}
	return out, total
}

// pkgOf returns the import path of a fully qualified function name
// ("tap/internal/core.(*Envelope).SizeBytes" → "tap/internal/core").
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// onStack reports whether any frame is one of the named functions.
func onStack(stack []string, fns ...string) bool {
	for _, f := range stack {
		for _, want := range fns {
			if f == want {
				return true
			}
		}
	}
	return false
}

// gcFrames mark a sample as garbage-collector work wherever it ran.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart"}

// relayCategories split a relay's CPU by the layer it was spent in.
var relayCategories = []string{"syscall", "sched", "gc", "crypto", "procnode", "tcptransport", "wire", "other"}

func classifyRelay(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	if onStack(stack, gcFrames...) {
		return "gc"
	}
	leaf := stack[0]
	pkg := pkgOf(leaf)
	switch {
	case pkg == "syscall" || pkg == "internal/poll" || strings.HasSuffix(pkg, "/syscall") ||
		leaf == "runtime.write1" || leaf == "runtime.read":
		return "syscall"
	case pkg == "runtime" && (onStack(stack, "runtime.schedule", "runtime.findRunnable", "runtime.mcall", "runtime.park_m", "runtime.netpoll") ||
		strings.HasPrefix(leaf, "runtime.futex") || leaf == "runtime.usleep" || leaf == "runtime.epollwait" || leaf == "runtime.nanotime1"):
		return "sched"
	}
	// Anything else (allocation, copying, hashing) is charged to the
	// innermost frame of a layer we attribute.
	return firstLayer(stack, func(pkg string) string {
		switch {
		case strings.HasPrefix(pkg, "crypto/") || pkg == "tap/internal/crypt" || strings.HasPrefix(pkg, "vendor/golang.org/x/crypto"):
			return "crypto"
		case pkg == "tap/internal/procnode" || pkg == "tap/internal/core" || pkg == "tap/internal/tha" || pkg == "tap/internal/id":
			return "procnode"
		case strings.HasPrefix(pkg, "tap/internal/transport"):
			return "tcptransport"
		case pkg == "tap/internal/wire":
			return "wire"
		}
		return ""
	})
}

// simCategories split the simulator's CPU by package.
var simCategories = []string{"simnet", "pastry", "core", "crypt", "gc", "other"}

func classifySim(stack []string) string {
	if onStack(stack, gcFrames...) {
		return "gc"
	}
	return firstLayer(stack, func(pkg string) string {
		switch {
		case pkg == "tap/internal/simnet":
			return "simnet"
		case pkg == "tap/internal/pastry":
			return "pastry"
		case pkg == "tap/internal/core":
			return "core"
		case pkg == "tap/internal/crypt" || strings.HasPrefix(pkg, "crypto/"):
			return "crypt"
		case pkg == "tap/internal/id" || pkg == "tap/internal/wire" || pkg == "tap/internal/rng":
			return "" // key-space and encoding helpers: charged to their caller
		case strings.HasPrefix(pkg, "tap/"):
			return "other" // a repository package with no category of its own
		}
		return ""
	})
}

// firstLayer walks a stack from its leaf and returns the category of
// the first frame layerOf names, or "other".
func firstLayer(stack []string, layerOf func(pkg string) string) string {
	for _, fn := range stack {
		if c := layerOf(pkgOf(fn)); c != "" {
			return c
		}
	}
	return "other"
}
