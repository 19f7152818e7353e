package wq

import (
	"testing"

	"lfm/internal/alloc"
	"lfm/internal/monitor"
)

func TestPlacementCacheAffinityFollowsData(t *testing.T) {
	env := &File{Name: "env.tgz", SizeBytes: 100e6, Cacheable: true}
	eng, m := testRig(t, 2, quickCfg(&alloc.Oracle{Peaks: map[string]monitor.Resources{
		"t": {Cores: 2, MemoryMB: 100, DiskMB: 10}}}))
	first := &Task{ID: 1, Category: "t", Inputs: []*File{env},
		Spec: monitor.Proc(10, monitor.Resources{Cores: 2, MemoryMB: 100, DiskMB: 10})}
	second := &Task{ID: 2, Category: "t", Inputs: []*File{env},
		Spec: monitor.Proc(10, monitor.Resources{Cores: 2, MemoryMB: 100, DiskMB: 10})}
	eng.At(0, func() { m.Submit(first) })
	// Submit the second task after the first finished: both workers idle,
	// but one has the file cached.
	eng.At(30, func() { m.Submit(second) })
	eng.Run()
	if m.Stats().CacheMisses != 1 {
		t.Fatalf("cache misses = %d, want 1 (affinity should reuse the cached copy)",
			m.Stats().CacheMisses)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	// One 8-core worker, one 10s whole-node task: while it runs the pool is
	// 100% allocated; a 1-core oracle label allocates 1/8.
	for _, tc := range []struct {
		strategy alloc.Strategy
		wantMin  float64
		wantMax  float64
	}{
		{&alloc.Unmanaged{}, 0.9, 1.0},
		{&alloc.Oracle{Peaks: map[string]monitor.Resources{
			"t": {Cores: 1, MemoryMB: 100, DiskMB: 10}}}, 0.1, 0.2},
	} {
		eng, m := testRig(t, 1, quickCfg(tc.strategy))
		task := simpleTask(1, 10, 100)
		eng.At(0, func() { m.Submit(task) })
		var util float64
		eng.At(9, func() { util = m.Utilization() })
		eng.Run()
		if util < tc.wantMin || util > tc.wantMax {
			t.Errorf("%s: utilization = %.3f, want [%v,%v]",
				tc.strategy.Name(), util, tc.wantMin, tc.wantMax)
		}
	}
}

func TestEffectiveUtilizationPenalizesWholeNode(t *testing.T) {
	run := func(s alloc.Strategy) float64 {
		eng, m := testRig(t, 1, quickCfg(s))
		eng.At(0, func() {
			for i := 0; i < 8; i++ {
				m.Submit(simpleTask(i, 10, 100))
			}
		})
		eng.Run()
		return m.EffectiveUtilization()
	}
	packed := run(&alloc.Oracle{Peaks: map[string]monitor.Resources{
		"t": {Cores: 1, MemoryMB: 100, DiskMB: 10}}})
	wholeNode := run(&alloc.Unmanaged{})
	if packed <= 2*wholeNode {
		t.Fatalf("effective utilization: packed %.3f vs whole-node %.3f, want >2x",
			packed, wholeNode)
	}
}
