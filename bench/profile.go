package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// cpuSample is one CPU profile sample: its call stack as function names,
// leaf first, and the CPU time it stands for.
type cpuSample struct {
	frames []string
	nanos  int64
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes into its samples. Only the fields the attribution needs are read:
// sample (2), location (4), function (5) and the string table (6).
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs        []string
		sampleTypes []int64 // string index of each sample type's name
		samples     [][]byte
		locFuncs    = map[uint64][]uint64{} // location -> function ids, innermost first
		funcNames   = map[uint64]int64{}    // function -> name string index
	)
	err = pbWalk(raw, func(num, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return pbWalk(b, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2:
			samples = append(samples, b)
		case 4:
			var id uint64
			var fns []uint64
			err := pbWalk(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return pbWalk(b, func(num, _ int, v uint64, _ []byte) error {
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
		case 5:
			var id uint64
			var name int64
			err := pbWalk(b, func(num, _ int, v uint64, _ []byte) error {
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
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	cpu := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, fmt.Errorf("profile: no cpu sample type")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, b := range samples {
		var locs, vals []uint64
		err := pbWalk(b, func(num, wire int, v uint64, b []byte) error {
			var err error
			switch num {
			case 1:
				locs, err = pbUints(locs, wire, v, b)
			case 2:
				vals, err = pbUints(vals, wire, v, b)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		if cpu >= len(vals) {
			return nil, fmt.Errorf("profile: sample has %d values, want > %d", len(vals), cpu)
		}
		s := cpuSample{nanos: int64(vals[cpu])}
		for _, l := range locs {
			for _, f := range locFuncs[l] {
				s.frames = append(s.frames, str(funcNames[f]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// pbWalk calls fn for each field of the protobuf message b: its number,
// wire type, and either the scalar value or the length-delimited bytes.
func pbWalk(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint in field %d", num)
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64 in field %d", num)
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return fmt.Errorf("profile: bad length in field %d", num)
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32 in field %d", num)
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d in field %d", wire, num)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated integer field, packed or not, to dst.
func pbUints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("profile: bad packed varint")
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}

const internalPrefix = "lfm/internal/"

// Layer buckets a sample can be charged to, named as the per-layer metric
// they feed. unattributed collects internal packages with no layer here and
// the probe's own code.
const (
	unattributed = "unattributed"
	gcBackground = "runtime.gc_bg_cpu_s"
)

// layerOf charges one sample, frames leaf first, to a layer: the innermost
// lfm/internal frame decides, after these rules.
//   - sim.Stats, sim.RNG and sim.Backoff are helpers, charged to their
//     caller.
//   - sim splits into FairShare and the engine (everything else).
//   - wq is index upkeep if the stack holds capacityChanged, cacheAdded or
//     markDirty; otherwise matching if it holds schedulePassIndexed;
//     otherwise task lifecycle.
//   - The benchmark's strategy probe is tracing overhead, not a layer: time
//     in the probe's own code is unattributed. The strategy it wraps is
//     alloc, as usual.
//   - A stack with no internal frame is background runtime work, mostly
//     the garbage collector.
func layerOf(frames []string) string {
	for _, f := range frames {
		if strings.Contains(f, ".(*probe).") { // package main, or lfm/bench under go test
			return unattributed
		}
		rest, ok := strings.CutPrefix(f, internalPrefix)
		if !ok {
			continue
		}
		pkg, fn, _ := strings.Cut(rest, ".")
		switch pkg {
		case "sim":
			switch receiver(fn) {
			case "Stats", "RNG", "NewRNG", "Backoff":
				continue
			case "FairShare", "Flow", "NewFairShare", "fless":
				return "sim.fairshare_cpu_s"
			}
			return "sim.engine_cpu_s"
		case "wq":
			switch {
			case holds(frames, "wq.(*schedState).capacityChanged", "wq.(*schedState).cacheAdded", "wq.(*schedState).markDirty"):
				return "wq.index_upkeep_cpu_s"
			case holds(frames, "wq.(*Master).schedulePassIndexed"):
				return "wq.match_cpu_s"
			}
			return "wq.lifecycle_cpu_s"
		case "alloc", "monitor", "sharedfs", "cluster", "serve", "chaos",
			"trace", "metrics", "tseries", "obs":
			return pkg + ".cpu_s"
		}
		return unattributed
	}
	return gcBackground
}

// receiver returns the type a function name belongs to: "Engine" for
// "(*Engine).Run.func1", "Backoff" for "Backoff.Delay", or the function's
// own name for a plain function.
func receiver(fn string) string {
	fn = strings.TrimPrefix(fn, "(*")
	if i := strings.IndexAny(fn, ").["); i >= 0 {
		return fn[:i]
	}
	return fn
}

// holds reports whether any frame names one of the wq functions given
// (closures and inlined copies included).
func holds(frames []string, fns ...string) bool {
	for _, f := range frames {
		for _, fn := range fns {
			if strings.HasPrefix(f, internalPrefix+fn) {
				return true
			}
		}
	}
	return false
}
