package gsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/trace"
)

func TestDrainImmediateWait(t *testing.T) {
	var d drain
	fired := false
	d.Wait(func() { fired = true })
	if !fired {
		t.Fatal("Wait with nothing pending did not fire immediately")
	}
}

func TestDrainEpochSemantics(t *testing.T) {
	var d drain
	d.Start()
	d.Start()
	fired := false
	d.Wait(func() { fired = true })
	// New work started after the wait must not delay it.
	d.Start()
	d.Finish()
	if fired {
		t.Fatal("fired with one of two epoch ops outstanding")
	}
	d.Finish()
	if !fired {
		t.Fatal("did not fire after epoch drained (later op still pending)")
	}
	if d.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", d.Pending())
	}
}

func TestDrainMultipleWaiters(t *testing.T) {
	var d drain
	d.Start()
	count := 0
	for i := 0; i < 5; i++ {
		d.Wait(func() { count++ })
	}
	d.Finish()
	if count != 5 {
		t.Fatalf("fired %d of 5 waiters", count)
	}
}

func TestDrainOverFinishPanics(t *testing.T) {
	var d drain
	d.Start()
	d.Finish()
	defer func() {
		if recover() == nil {
			t.Error("Finish beyond Start did not panic")
		}
	}()
	d.Finish()
}

func TestDrainWaiterOrdering(t *testing.T) {
	var d drain
	d.Start()
	var order []int
	d.Wait(func() { order = append(order, 1) })
	d.Start()
	d.Wait(func() { order = append(order, 2) })
	d.Finish() // epoch 1 drained
	if len(order) != 1 || order[0] != 1 {
		t.Fatalf("order after first finish = %v", order)
	}
	d.Finish()
	if len(order) != 2 || order[1] != 2 {
		t.Fatalf("order after second finish = %v", order)
	}
}

// TestDrainRandomProperty: under random interleavings of Start/Finish/
// Wait, every waiter eventually fires, none fires early (while its epoch
// has outstanding work), and Pending never underflows.
func TestDrainRandomProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var d drain
		outstanding := 0
		type waiter struct {
			epoch uint64
			fired *bool
		}
		var waiters []waiter
		for i := 0; i < 300; i++ {
			switch rng.Intn(3) {
			case 0:
				d.Start()
				outstanding++
			case 1:
				if outstanding > 0 {
					d.Finish()
					outstanding--
				}
			case 2:
				fired := false
				waiters = append(waiters, waiter{epoch: d.started, fired: &fired})
				d.Wait(func() { fired = true })
			}
			// No waiter may fire while its epoch is not drained.
			for _, w := range waiters {
				if *w.fired && d.finished < w.epoch {
					return false
				}
				if !*w.fired && d.finished >= w.epoch {
					return false
				}
			}
			if d.Pending() != uint64(outstanding) {
				return false
			}
		}
		for outstanding > 0 {
			d.Finish()
			outstanding--
		}
		for _, w := range waiters {
			if !*w.fired {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPooledContextsDrain pins the pool accounting the conformance
// checker relies on: after a run every context is back in its pool, a
// drawn context counts as live until released, and a second release
// panics.
func TestPooledContextsDrain(t *testing.T) {
	s, err := New(tinyConfig(proto.HMG))
	if err != nil {
		t.Fatal(err)
	}
	var ops []trace.Op
	for i := 0; i < 64; i++ {
		ops = append(ops, trace.Op{Kind: trace.Load, Addr: topo.Addr(i * 128)},
			trace.Op{Kind: trace.Store, Addr: topo.Addr(i * 256), Val: uint64(i + 1)})
	}
	if _, err := s.Run(warpsTrace(ops, ops, ops, ops)); err != nil {
		t.Fatal(err)
	}
	if n := s.LiveContexts(); n != 0 {
		t.Fatalf("%d pooled contexts live after the run drained", n)
	}
	c := s.newCtx(stageOpDone)
	if n := s.LiveContexts(); n != 1 {
		t.Fatalf("LiveContexts = %d with one context drawn, want 1", n)
	}
	c.release()
	if n := s.LiveContexts(); n != 0 {
		t.Fatalf("LiveContexts = %d after release, want 0", n)
	}
	defer func() {
		if recover() == nil {
			t.Error("releasing a context twice did not panic")
		}
	}()
	c.release()
}
