package tracing

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestSpanLifecycleAndLinks(t *testing.T) {
	rec := New("", 0)
	if len(rec.Trace()) != 32 {
		t.Fatalf("trace id %q: want hex-32", rec.Trace())
	}
	root := rec.Start("sweep", "")
	child := rec.StartJob("job", root.ID(), 7)
	child.End()
	root.End()

	spans, next := rec.Snapshot(0)
	if len(spans) != 2 || next != 2 {
		t.Fatalf("got %d spans, next=%d; want 2, 2", len(spans), next)
	}
	// Completion order: the child ended first.
	if spans[0].Name != "job" || spans[1].Name != "sweep" {
		t.Fatalf("span order %q, %q; want job, sweep", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != spans[1].ID {
		t.Fatalf("child parent %q does not link to root id %q", spans[0].Parent, spans[1].ID)
	}
	if spans[1].Parent != "" {
		t.Fatalf("root parent %q; want empty", spans[1].Parent)
	}
	if spans[0].Job != 7 || spans[1].Job != -1 {
		t.Fatalf("job tags %d, %d; want 7, -1", spans[0].Job, spans[1].Job)
	}
	for _, s := range spans {
		if s.Trace != rec.Trace() {
			t.Fatalf("span trace %q != recorder trace %q", s.Trace, rec.Trace())
		}
		if len(s.ID) != 16 {
			t.Fatalf("span id %q: want hex-16", s.ID)
		}
		if s.Dur < 0 {
			t.Fatalf("negative duration %v", s.Dur)
		}
	}
	if spans[0].ID == spans[1].ID {
		t.Fatal("span ids collide")
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var rec *Recorder
	a := rec.Start("sweep", "")
	a.SetWorker("w")
	a.End()
	if id := a.ID(); id != "" {
		t.Fatalf("nil Active id %q; want empty", id)
	}
	rec.StartJob("job", "", 3).End()
	rec.Add("expand", "", -1, time.Now(), time.Millisecond)
	rec.Import(Span{Name: "x"})
	rec.Finish()
	if !rec.Finished() {
		t.Fatal("nil recorder must report finished")
	}
	if rec.Trace() != "" || rec.Len() != 0 {
		t.Fatal("nil recorder must be empty")
	}
}

func TestRingEvictionKeepsAbsoluteCursor(t *testing.T) {
	rec := New("", 4)
	for i := 0; i < 10; i++ {
		rec.Add("job", "", i, time.Now(), 0)
	}
	if rec.Len() != 10 {
		t.Fatalf("Len = %d; want 10 (evictions keep the absolute height)", rec.Len())
	}
	// A cursor inside the evicted prefix clamps forward to the oldest
	// retained span.
	spans, next := rec.Snapshot(0)
	if len(spans) != 4 || next != 10 {
		t.Fatalf("got %d spans, next=%d; want the 4 retained, next=10", len(spans), next)
	}
	if spans[0].Job != 6 || spans[3].Job != 9 {
		t.Fatalf("retained jobs %d..%d; want 6..9", spans[0].Job, spans[3].Job)
	}
	// Resuming from a live cursor replays nothing until new spans land.
	spans, next = rec.Snapshot(next)
	if len(spans) != 0 || next != 10 {
		t.Fatalf("resume replayed %d spans; want 0", len(spans))
	}
}

func TestImportAfterFinishIsDropped(t *testing.T) {
	rec := New("", 0)
	rec.Add("job", "", 0, time.Now(), 0)
	rec.Finish()
	rec.Add("late", "", 1, time.Now(), 0)
	if rec.Len() != 1 {
		t.Fatalf("Len = %d after post-finish import; want 1", rec.Len())
	}
}

func TestImportNormalisesTraceID(t *testing.T) {
	rec := New("aaaa", 0)
	rec.Import(Span{Trace: "bbbb", ID: "0123456789abcdef", Name: "job"})
	spans, _ := rec.Snapshot(0)
	if spans[0].Trace != "aaaa" {
		t.Fatalf("imported span trace %q; want recorder's %q", spans[0].Trace, "aaaa")
	}
	if spans[0].ID != "0123456789abcdef" {
		t.Fatalf("imported span id %q changed; must be preserved", spans[0].ID)
	}
}

func TestFollowBlocksUntilSpanOrFinish(t *testing.T) {
	rec := New("", 0)
	got := make(chan int, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		chunks, late := 0, 0
		err := rec.Spans().Follow(context.Background(), 0, func(spans []Span) error {
			if chunks++; chunks == 1 {
				got <- len(spans)
			} else {
				late += len(spans)
			}
			return nil
		})
		if err != nil {
			t.Errorf("Follow after Finish returned %v; want nil (done)", err)
		}
		got <- late
	}()
	rec.Add("job", "", 0, time.Now(), 0)
	if n := <-got; n != 1 {
		t.Fatalf("first chunk delivered %d spans; want 1", n)
	}
	rec.Finish()
	if n := <-got; n != 0 {
		t.Fatalf("post-finish Follow delivered %d spans; want 0", n)
	}
	wg.Wait()
}

func TestFollowUnblocksOnContextEnd(t *testing.T) {
	rec := New("", 0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error)
	go func() {
		done <- rec.Spans().Follow(ctx, 0, func([]Span) error { return nil })
	}()
	// Let Follow reach its wait, so the cancel must wake it.
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Follow returned %v; want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Follow did not unblock when its context ended")
	}
}

func TestConcurrentRecordingIsRaceFree(t *testing.T) {
	rec := New("", 128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				a := rec.StartJob("job", "", w*50+i)
				rec.Add("probe", a.ID(), w*50+i, time.Now(), 0)
				a.End()
			}
		}()
	}
	wg.Wait()
	rec.Finish()
	if rec.Len() != 800 {
		t.Fatalf("Len = %d; want 800", rec.Len())
	}
	ids := make(map[string]bool)
	spans, _ := rec.Snapshot(0)
	for _, s := range spans {
		if ids[s.ID] {
			t.Fatalf("duplicate span id %s", s.ID)
		}
		ids[s.ID] = true
	}
}

func TestAlertsRisingEdge(t *testing.T) {
	a := NewAlerts()
	v := 0.0
	a.Watch("failed_total", 3, func() float64 { return v })
	var seen []Alert
	a.Notify(func(al Alert) { seen = append(seen, al) })

	if fired := a.Poll(); len(fired) != 0 {
		t.Fatalf("fired %d alerts below bound; want 0", len(fired))
	}
	v = 5
	fired := a.Poll()
	if len(fired) != 1 || fired[0].Name != "failed_total" || fired[0].Value != 5 || fired[0].Bound != 3 {
		t.Fatalf("unexpected alerts %+v", fired)
	}
	// Still above the bound: latched, no re-fire.
	if fired := a.Poll(); len(fired) != 0 {
		t.Fatalf("re-fired while latched: %+v", fired)
	}
	// Drop below, rise again: a fresh excursion fires again.
	v = 1
	a.Poll()
	v = 9
	if fired := a.Poll(); len(fired) != 1 {
		t.Fatalf("second excursion fired %d alerts; want 1", len(fired))
	}
	if len(seen) != 2 {
		t.Fatalf("notify saw %d alerts; want 2", len(seen))
	}
}

func TestAlertsNilSafe(t *testing.T) {
	var a *Alerts
	a.Watch("x", 1, func() float64 { return 2 })
	a.Notify(func(Alert) {})
	if fired := a.Poll(); fired != nil {
		t.Fatal("nil Alerts must not fire")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a.Run(ctx, time.Millisecond) // must return immediately, not hang
}

func TestAlertsRunLoopPolls(t *testing.T) {
	a := NewAlerts()
	var mu sync.Mutex
	hits := 0
	a.Watch("sig", 1, func() float64 { return 10 })
	a.Notify(func(Alert) {
		mu.Lock()
		hits++
		mu.Unlock()
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		a.Run(ctx, time.Millisecond)
	}()
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		n := hits
		mu.Unlock()
		if n >= 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("Run loop never polled")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	<-done
}
