package engine

// Fixtures for the checks that read call-graph summaries: ctxflow (a
// held context must reach every may-block callee) and lockdiscipline's
// callee check (no mutex held across a call to a helper whose summary
// is may-block). The helpers below hide the blocking operation one
// call deep, where a purely intra-procedural check would miss it.

import (
	"context"
	"sync"
	"time"
)

type worker struct {
	ctx  context.Context // stored context: the classic threading smell
	done chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	n    int
}

// awaitDone parks until the worker finishes; context-aware.
func awaitDone(ctx context.Context, w *worker) {
	select {
	case <-w.done:
	case <-ctx.Done():
	}
}

// joinAll parks on the WaitGroup and accepts no context.
func (w *worker) joinAll() {
	w.wg.Wait()
}

// bump is a short critical section: lock-only helpers need no context.
func (w *worker) bump() {
	w.mu.Lock()
	w.n++
	w.mu.Unlock()
}

func severed(ctx context.Context, w *worker) {
	w.joinAll() // want ctxflow "accepts no context"
}

func dropped(ctx context.Context, w *worker) {
	awaitDone(w.ctx, w) // want ctxflow "receives no context derived"
}

func sleepy(ctx context.Context) {
	time.Sleep(time.Millisecond) // want ctxflow "bare time.Sleep"
}

func threaded(ctx context.Context, w *worker) {
	child, cancel := context.WithCancel(ctx)
	defer cancel()
	awaitDone(child, w) // ok: a derived context reaches the park
	w.bump()            // ok: lock-only helpers are not cancellation-relevant
}

func warmJoin(ctx context.Context, w *worker) {
	w.joinAll() //tableseglint:ignore ctxflow the pool is empty before Serve runs, so this join returns immediately
}

// recvDone hides a channel receive one call deep.
func (w *worker) recvDone() {
	<-w.done
}

func lockAcrossHelper(w *worker) {
	w.mu.Lock()
	w.recvDone() // want lockdiscipline "may block"
	w.mu.Unlock()
}

// waitCount hides a channel receive one call deep and returns a value.
func (w *worker) waitCount() int {
	<-w.done
	return w.n
}

// lockAcrossBoth blocks twice in one statement: the walk reports the
// intrinsic send, and only that, for the node.
func lockAcrossBoth(w *worker, out chan<- int) {
	w.mu.Lock()
	out <- w.waitCount() // want lockdiscipline "held across channel send"
	w.mu.Unlock()
}

func lockReleasedFirst(w *worker) {
	w.mu.Lock()
	w.n++
	w.mu.Unlock()
	w.recvDone() // ok: the lock is released before the blocking call
}

func lockHeldByDesign(w *worker) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.recvDone() //tableseglint:ignore lockdiscipline w.done is closed before this is reachable, so the receive cannot park
}
