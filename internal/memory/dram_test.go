package memory

import (
	"testing"

	"hmg/internal/engine"
)

func TestReadLatency(t *testing.T) {
	e := engine.New(1.3e9)
	d := New(e, Config{BandwidthGBs: 0, Latency: 250, LineSize: 128})
	var at engine.Cycle
	d.Read(0, func() { at = e.Now() })
	e.Drain()
	if at != 250 {
		t.Fatalf("read completed at %d, want 250", at)
	}
	if d.Stats.Reads != 1 || d.Stats.Bytes != 128 {
		t.Fatalf("stats = %+v", d.Stats)
	}
}

// readDone is a reusable ReadHandler completion that records its cycle.
type readDone struct {
	e  *engine.Engine
	at engine.Cycle
}

func (r *readDone) Handle() { r.at = r.e.Now() }

// TestReadHandlerMatchesRead pins that the handler form completes at the
// same cycle with the same stats as the func form, and that a warmed
// handler-form read allocates nothing.
func TestReadHandlerMatchesRead(t *testing.T) {
	cfg := Config{BandwidthGBs: 130, Latency: 10, LineSize: 128}
	fe := engine.New(1.3e9)
	fd := New(fe, cfg)
	he := engine.New(1.3e9)
	hd := New(he, cfg)
	h := &readDone{e: he}
	for i := 0; i < 3; i++ {
		var at engine.Cycle
		fd.Read(0, func() { at = fe.Now() })
		fe.Drain()
		hd.ReadHandler(0, h)
		he.Drain()
		if h.at != at {
			t.Fatalf("read %d: ReadHandler done at %d, Read at %d", i, h.at, at)
		}
	}
	if hd.Stats != fd.Stats {
		t.Fatalf("stats differ: handler %+v, func %+v", hd.Stats, fd.Stats)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		hd.ReadHandler(0, h)
		he.Drain()
	}); allocs != 0 {
		t.Fatalf("warmed ReadHandler allocates %.1f times per read", allocs)
	}
}

func TestBandwidthQueueing(t *testing.T) {
	e := engine.New(1.3e9)
	// 130 GB/s = 100 B/cyc; a 128B line occupies 2 cycles.
	d := New(e, Config{BandwidthGBs: 130, Latency: 10, LineSize: 128})
	var times []engine.Cycle
	for i := 0; i < 3; i++ {
		d.Read(0, func() { times = append(times, e.Now()) })
	}
	e.Drain()
	// 1.28 cycles of serialization per line, accumulated fractionally.
	want := []engine.Cycle{12, 13, 14}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("read %d at %d, want %d (FIFO bandwidth queue)", i, times[i], want[i])
		}
	}
}

func TestWriteNilDone(t *testing.T) {
	e := engine.New(1.3e9)
	d := New(e, DefaultConfig())
	d.Write(32, nil) // must not panic
	e.Drain()
	if d.Stats.Writes != 1 {
		t.Fatalf("Writes = %d", d.Stats.Writes)
	}
}

func TestWriteDone(t *testing.T) {
	e := engine.New(1.3e9)
	d := New(e, Config{BandwidthGBs: 0, Latency: 5, LineSize: 128})
	var at engine.Cycle
	d.Write(32, engine.Func(func() { at = e.Now() }))
	e.Drain()
	if at != 5 {
		t.Fatalf("write done at %d, want 5", at)
	}
}

func TestValueStore(t *testing.T) {
	e := engine.New(0)
	d := New(e, DefaultConfig())
	if d.LoadValue(64) != 0 {
		t.Fatal("unwritten word not zero")
	}
	d.StoreValue(64, 42)
	d.StoreValue(68, 43)
	if d.LoadValue(64) != 42 || d.LoadValue(68) != 43 {
		t.Fatal("StoreValue/LoadValue mismatch")
	}
	// Overwrite.
	d.StoreValue(64, 99)
	if d.LoadValue(64) != 99 {
		t.Fatal("overwrite failed")
	}
}

func TestLineValues(t *testing.T) {
	e := engine.New(0)
	d := New(e, DefaultConfig())
	if d.LineValues(1) != nil {
		t.Fatal("LineValues non-nil for untouched line")
	}
	// Line 1 covers bytes 128..255; words 32..63 globally.
	d.StoreValue(128, 7)  // word 0 of line 1
	d.StoreValue(132, 8)  // word 1 of line 1
	d.StoreValue(256, 99) // line 2, must not appear
	vals := d.LineValues(1)
	if len(vals) != 2 || vals[0] != 7 || vals[1] != 8 {
		t.Fatalf("LineValues = %v", vals)
	}
}
