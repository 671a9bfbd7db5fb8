// Package linelog is the append-only log behind every stream a sweep
// serves: its result lines and its trace spans. Entries are addressed
// by absolute cursors, appends stop at a seal, and followers block
// until there is something past their cursor, the log is sealed, or
// their context ends.
//
// Reads hand out capped views of the log's storage, not copies: an
// entry must not be written after Append.
package linelog

import (
	"context"
	"sync"
)

// Log is an append-only sequence of entries with a seal. A bounded log
// evicts its oldest entries; cursors stay absolute, and a cursor behind
// the eviction horizon is clamped forward. All methods are safe for
// concurrent use. Create with New.
type Log[T any] struct {
	mu    sync.Mutex
	cond  sync.Cond
	limit int
	buf   []T
	// first is the absolute index of buf[0]: eviction moves it forward
	// instead of renumbering.
	first  int64
	sealed bool
}

// New builds an empty log that keeps at most limit entries, evicting
// the oldest first; 0 keeps every entry.
func New[T any](limit int) *Log[T] {
	l := &Log[T]{limit: limit}
	l.cond.L = &l.mu
	return l
}

// Append adds v at the end of the log and wakes its followers. After
// Seal it drops v.
func (l *Log[T]) Append(v T) {
	l.mu.Lock()
	if l.sealed {
		l.mu.Unlock()
		return
	}
	l.buf = append(l.buf, v)
	if l.limit > 0 && len(l.buf) > l.limit {
		n := len(l.buf) - l.limit
		l.buf = l.buf[n:]
		l.first += int64(n)
	}
	l.mu.Unlock()
	l.cond.Broadcast()
}

// Seal ends the log: later appends are dropped, and followers return
// once they have the last chunk. Idempotent.
func (l *Log[T]) Seal() {
	l.mu.Lock()
	l.sealed = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

// Sealed reports whether Seal has been called.
func (l *Log[T]) Sealed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sealed
}

// Len returns the number of entries appended so far, evicted ones
// included (the absolute height).
func (l *Log[T]) Len() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.first + int64(len(l.buf))
}

// Retained returns the number of entries the log holds: Len minus the
// evicted ones.
func (l *Log[T]) Retained() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}

// Since returns, without blocking, the retained entries from the
// absolute cursor from on, the cursor past them, and whether the log is
// sealed — all read at one instant, so a sealed log's chunk is its
// last.
func (l *Log[T]) Since(from int64) (chunk []T, next int64, sealed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.since(from)
}

// since is Since with l.mu held. The cursor never moves backwards: one
// past the end stays where it is.
func (l *Log[T]) since(from int64) ([]T, int64, bool) {
	from = max(from, l.first)
	n := len(l.buf)
	end := l.first + int64(n)
	if from >= end {
		return nil, from, l.sealed
	}
	return l.buf[from-l.first : n : n], end, l.sealed
}

// Follow hands fn every non-empty chunk of entries from the absolute
// cursor from on, as they are appended. It blocks while there is
// nothing past its cursor, the log is unsealed and ctx is live. It
// returns nil after handing fn the last chunk of a sealed log, ctx.Err()
// when ctx ends first, or the first error fn returns.
func (l *Log[T]) Follow(ctx context.Context, from int64, fn func(chunk []T) error) error {
	// The wake-up takes the lock before it broadcasts, so it cannot slip
	// into the gap between the wait loop's ctx check and its Wait.
	stop := context.AfterFunc(ctx, func() {
		l.mu.Lock()
		l.cond.Broadcast()
		l.mu.Unlock()
	})
	defer stop()
	for {
		l.mu.Lock()
		for from >= l.first+int64(len(l.buf)) && !l.sealed && ctx.Err() == nil {
			l.cond.Wait()
		}
		chunk, next, sealed := l.since(from)
		l.mu.Unlock()
		if err := ctx.Err(); err != nil {
			return err
		}
		from = next
		if len(chunk) > 0 {
			if err := fn(chunk); err != nil {
				return err
			}
		}
		if sealed {
			return nil
		}
	}
}
