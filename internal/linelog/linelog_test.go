package linelog

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// follow runs Follow in a goroutine, collecting every entry it is
// handed; the returned channel yields the entries and Follow's error.
func follow(ctx context.Context, l *Log[int], from int64) <-chan followed {
	out := make(chan followed, 1)
	go func() {
		var f followed
		f.err = l.Follow(ctx, from, func(chunk []int) error {
			f.got = append(f.got, chunk...)
			return nil
		})
		out <- f
	}()
	return out
}

type followed struct {
	got []int
	err error
}

func TestFollowBlocksUntilAppendOrSeal(t *testing.T) {
	l := New[int](0)
	got := make(chan []int, 4)
	done := make(chan error, 1)
	go func() {
		done <- l.Follow(context.Background(), 0, func(chunk []int) error {
			got <- append([]int(nil), chunk...)
			return nil
		})
	}()
	select {
	case c := <-got:
		t.Fatalf("Follow delivered %v from an empty log", c)
	case err := <-done:
		t.Fatalf("Follow returned %v before any append or seal", err)
	case <-time.After(30 * time.Millisecond):
	}
	l.Append(1)
	if c := <-got; len(c) != 1 || c[0] != 1 {
		t.Fatalf("first chunk %v; want [1]", c)
	}
	select {
	case err := <-done:
		t.Fatalf("Follow returned %v on an unsealed log", err)
	case <-time.After(30 * time.Millisecond):
	}
	l.Append(2)
	l.Seal()
	if err := <-done; err != nil {
		t.Fatalf("Follow on a sealed log returned %v; want nil", err)
	}
	close(got)
	var rest []int
	for c := range got {
		rest = append(rest, c...)
	}
	if len(rest) != 1 || rest[0] != 2 {
		t.Fatalf("entries after the first chunk %v; want [2]", rest)
	}
}

func TestFollowReturnsContextError(t *testing.T) {
	l := New[int](0)
	l.Append(1)
	ctx, cancel := context.WithCancel(context.Background())
	seen := make(chan int, 1)
	done := make(chan error, 1)
	go func() {
		done <- l.Follow(ctx, 0, func(chunk []int) error {
			seen <- len(chunk)
			return nil
		})
	}()
	if n := <-seen; n != 1 {
		t.Fatalf("first chunk held %d entries; want 1", n)
	}
	// Now blocked past the last entry of an unsealed log.
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Follow returned %v; want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Follow did not return when its context ended")
	}

	// A context that ended before the call returns at once, even with
	// entries waiting: its reader is gone.
	f := <-follow(ctx, l, 0)
	if !errors.Is(f.err, context.Canceled) || len(f.got) != 0 {
		t.Fatalf("Follow on an ended context: %v, %v; want no entries and context.Canceled", f.got, f.err)
	}
}

func TestFollowReturnsCallbackError(t *testing.T) {
	l := New[int](0)
	l.Append(1)
	stop := errors.New("reader gone")
	err := l.Follow(context.Background(), 0, func([]int) error { return stop })
	if err != stop {
		t.Fatalf("Follow returned %v; want the callback's error", err)
	}
}

func TestEvictionKeepsAbsoluteCursor(t *testing.T) {
	l := New[int](4)
	for i := 0; i < 10; i++ {
		l.Append(i)
	}
	if l.Len() != 10 || l.Retained() != 4 {
		t.Fatalf("Len %d, Retained %d; want 10, 4 (evictions keep the absolute height)", l.Len(), l.Retained())
	}
	// A cursor inside the evicted prefix clamps forward to the oldest
	// retained entry.
	chunk, next, sealed := l.Since(0)
	if len(chunk) != 4 || chunk[0] != 6 || chunk[3] != 9 || next != 10 || sealed {
		t.Fatalf("Since(0) = %v, %d, %v; want [6 7 8 9], 10, false", chunk, next, sealed)
	}
	chunk, next, _ = l.Since(8)
	if len(chunk) != 2 || chunk[0] != 8 || next != 10 {
		t.Fatalf("Since(8) = %v, %d; want [8 9], 10", chunk, next)
	}
	// A cursor at or past the end stays where it is.
	if chunk, next, _ = l.Since(12); chunk != nil || next != 12 {
		t.Fatalf("Since(12) = %v, %d; want nil, 12", chunk, next)
	}
	// Follow clamps the same way.
	l.Seal()
	if f := <-follow(context.Background(), l, 2); f.err != nil || len(f.got) != 4 || f.got[0] != 6 {
		t.Fatalf("Follow(2) = %v, %v; want [6 7 8 9], nil", f.got, f.err)
	}
}

func TestChunksAreCappedViews(t *testing.T) {
	l := New[int](0)
	l.Append(1)
	chunk, _, _ := l.Since(0)
	if cap(chunk) != len(chunk) {
		t.Fatalf("chunk cap %d > len %d: an append through it would write the log", cap(chunk), len(chunk))
	}
	l.Append(2)
	if len(chunk) != 1 || chunk[0] != 1 {
		t.Fatalf("earlier chunk changed to %v by a later append", chunk)
	}
}

func TestAppendAfterSealIsDropped(t *testing.T) {
	l := New[int](0)
	l.Append(1)
	if l.Sealed() {
		t.Fatal("fresh log reports sealed")
	}
	l.Seal()
	l.Seal() // idempotent
	l.Append(2)
	if !l.Sealed() || l.Len() != 1 {
		t.Fatalf("sealed %v, Len %d after a post-seal append; want true, 1", l.Sealed(), l.Len())
	}
	if chunk, next, sealed := l.Since(1); chunk != nil || next != 1 || !sealed {
		t.Fatalf("Since(1) = %v, %d, %v; want nil, 1, true", chunk, next, sealed)
	}
}

// TestConcurrentFollowersSeeEveryEntryInOrder: followers that start
// before, during and after the appends each see the whole sequence
// once, in order, and return when the log is sealed.
func TestConcurrentFollowersSeeEveryEntryInOrder(t *testing.T) {
	const appenders, each, followers = 4, 250, 4
	l := New[[2]int](0)
	var fwg sync.WaitGroup
	results := make([][][2]int, followers)
	start := func(i int) {
		fwg.Add(1)
		go func() {
			defer fwg.Done()
			if err := l.Follow(context.Background(), 0, func(chunk [][2]int) error {
				results[i] = append(results[i], chunk...)
				return nil
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	start(0)
	start(1)
	var awg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		awg.Add(1)
		go func() {
			defer awg.Done()
			for i := 0; i < each; i++ {
				l.Append([2]int{a, i})
			}
		}()
	}
	start(2)
	awg.Wait()
	l.Seal()
	start(3)
	fwg.Wait()

	want, _, _ := l.Since(0)
	if len(want) != appenders*each {
		t.Fatalf("log holds %d entries; want %d", len(want), appenders*each)
	}
	// Each appender's own entries land in the order it appended them.
	last := make([]int, appenders)
	for i := range last {
		last[i] = -1
	}
	for _, e := range want {
		if e[1] != last[e[0]]+1 {
			t.Fatalf("appender %d's entry %d follows %d", e[0], e[1], last[e[0]])
		}
		last[e[0]] = e[1]
	}
	for i, got := range results {
		if len(got) != len(want) {
			t.Fatalf("follower %d saw %d entries; want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("follower %d entry %d = %v; want %v", i, j, got[j], want[j])
			}
		}
	}
}
