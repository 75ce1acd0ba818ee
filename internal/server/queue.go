package server

import "sync"

// queue is the bounded admission FIFO that every worker pops from, so no
// worker idles while a job waits. Admission fails — never blocks — when
// the queue is full: backpressure must reach the client as a 429, not
// stall the HTTP handler pool.
type queue struct {
	mu     sync.Mutex
	jobs   []*Job
	cap    int
	closed bool
	// ready wakes workers blocked in pop. Each push signals one waiter
	// for its one job, and a worker re-checks the FIFO under mu before it
	// waits, so back-to-back pushes wake as many workers as there are
	// jobs and no wakeup is lost.
	ready *sync.Cond
}

// newQueue builds a queue holding at most c jobs.
func newQueue(c int) *queue {
	q := &queue{cap: c}
	q.ready = sync.NewCond(&q.mu)
	return q
}

// push enqueues j. It reports false when the queue is full or closed —
// the admission-control signal.
func (q *queue) push(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || len(q.jobs) >= q.cap {
		return false
	}
	q.jobs = append(q.jobs, j)
	q.ready.Signal()
	return true
}

// pop blocks until a job is queued or the queue closes, and returns the
// oldest job, or nil once the queue is closed: jobs still queued then
// stay for drainPending.
func (q *queue) pop() *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.jobs) == 0 && !q.closed {
		q.ready.Wait()
	}
	if q.closed {
		return nil
	}
	j := q.jobs[0]
	q.jobs[0] = nil
	q.jobs = q.jobs[1:]
	return j
}

// depth returns the queued count.
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.jobs)
}

// close stops admission and wakes every waiting worker; queued jobs
// remain for drain accounting.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.ready.Broadcast()
}

// drainPending removes and returns every queued job (used at shutdown to
// count jobs left for the journal to recover).
func (q *queue) drainPending() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := q.jobs
	q.jobs = nil
	return out
}
