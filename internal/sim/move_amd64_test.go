//go:build amd64 && !race

package sim

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

	"vinfra/internal/geo"
	"vinfra/internal/mobility"
	"vinfra/internal/wire"
)

// TestKernelLayout holds the offsets move_amd64.s reads a leg at to
// mobility.Leg as it is laid out: a destination, then whether there is one;
// and the legs column's entries to a leg at 0, its model's index at 24, 32
// bytes in all.
func TestKernelLayout(t *testing.T) {
	var ls legSlot
	if off := unsafe.Offsetof(ls.leg); off != 0 {
		t.Errorf("legSlot.leg at offset %d, the kernel reads it at 0", off)
	}
	if off := unsafe.Offsetof(ls.model); off != 24 {
		t.Errorf("legSlot.model at offset %d, the kernel reads it at 24", off)
	}
	if size := unsafe.Sizeof(ls); size != 1<<legSlotLog {
		t.Errorf("legSlot is %d bytes, the kernel strides %d", size, 1<<legSlotLog)
	}
	leg := reflect.TypeOf(mobility.Leg{})
	for _, f := range []struct {
		name string
		typ  reflect.Type
		off  uintptr
	}{
		{"dest", reflect.TypeOf(geo.Point{}), legDest},
		{"hasDest", reflect.TypeOf(false), legHasDest},
	} {
		sf, ok := leg.FieldByName(f.name)
		if !ok || sf.Type != f.typ || sf.Offset != f.off {
			t.Errorf("mobility.Leg.%s: %v at offset %d, the kernel reads a %v at %d", f.name, sf.Type, sf.Offset, f.typ, f.off)
		}
	}
}

// TestKernelBoxMatchesScalar holds the bounding boxes the kernel folds to
// the scalar loop's, bit for bit: in a sharded world whose pairs the kernel
// takes, devices whose legs head for an infinite destination step to a NaN
// coordinate inside the kernel, and the boxes must step over it as stretch
// does — with one chunk and with three.
func TestKernelBoxMatchesScalar(t *testing.T) {
	defer func() { kernelOff = false }()
	m := &mobility.RandomWaypoint{Area: geo.Rect{Max: geo.Point{X: 20, Y: 20}}, VMax: 0.5}
	dests := []geo.Point{
		{X: math.Inf(1), Y: 5}, {X: 19, Y: 19}, {X: 1, Y: 18}, {X: 5, Y: math.Inf(-1)},
		{X: 17, Y: 2}, {X: math.Inf(-1), Y: math.Inf(1)}, {X: 3, Y: 3}, {X: 12, Y: 19},
		{X: 19, Y: 1}, {X: 2, Y: 2}, {X: 15, Y: 15}, {X: math.Inf(1), Y: -4},
	}
	for _, workers := range []int{1, 3} {
		build := func() *Engine {
			e := NewEngine(nil, WithWorkers(workers), WithRegionShards(2, 2, 10, func() Medium { return &nullMedium{} }))
			for i := range dests {
				e.Attach(geo.Point{X: float64(i) + 0.5, Y: 10 - float64(i)}, m, func(env Env) Node { return &echoNode{env: env} })
			}
			snap := e.Snapshot()
			for i, d := range dests {
				snap.Nodes[i].Mover = wire.AppendFloat64(wire.AppendFloat64(wire.AppendBool(nil, true), d.X), d.Y)
			}
			if err := e.Restore(snap); err != nil {
				t.Fatal(err)
			}
			return e
		}
		on, off := build(), build()
		for r := 0; r < 3; r++ {
			kernelOff = true
			off.Step()
			kernelOff = false
			before := on.packed.Load()
			on.Step()
			if r == 0 && on.packed.Load() == before {
				t.Fatalf("%d workers: the kernel took no pair", workers)
			}
			if len(on.plane.bounds) != len(off.plane.bounds) {
				t.Fatalf("%d workers round %d: %d boxes with the kernel, %d without", workers, r, len(on.plane.bounds), len(off.plane.bounds))
			}
			for w, a := range on.plane.bounds {
				b := off.plane.bounds[w]
				for i, v := range []float64{a.Min.X, a.Min.Y, a.Max.X, a.Max.Y} {
					if u := []float64{b.Min.X, b.Min.Y, b.Max.X, b.Max.Y}[i]; math.Float64bits(v) != math.Float64bits(u) {
						t.Fatalf("%d workers round %d chunk %d: box %v with the kernel, %v without", workers, r, w, a, b)
					}
				}
			}
		}
		on.Close()
		off.Close()
	}
}
