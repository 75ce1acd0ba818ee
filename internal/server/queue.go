package server

import (
	"hash/fnv"
	"sync"
)

// queue is the bounded, sharded admission queue. Each shard is an
// independent FIFO feeding one worker, and jobs are routed by shard key
// (scale/seed), so a warm shard keeps serving its datasets and models
// from cache while other shards stay isolated. Admission fails — never
// blocks — when the target shard is full: backpressure must reach the
// client as a 429, not stall the HTTP handler pool.
type queue struct {
	mu     sync.Mutex
	shards []shardQueue
	cap    int // per-shard capacity
	closed bool
	// wake signals workers that their shard may have work (one channel
	// per shard, capacity 1: a lost wakeup is re-posted by the next push,
	// and workers re-check the FIFO before sleeping).
	wake []chan struct{}
}

type shardQueue struct {
	jobs []*Job
}

// newQueue builds a queue with n shards of per-shard capacity c.
func newQueue(n, c int) *queue {
	q := &queue{shards: make([]shardQueue, n), cap: c, wake: make([]chan struct{}, n)}
	for i := range q.wake {
		q.wake[i] = make(chan struct{}, 1)
	}
	return q
}

// shardFor routes a job to its shard by hashing the shard key, giving
// every (scale, seed) family a home worker whose suite cache stays warm.
// The modulo is taken in uint32: where int is 32 bits, int(h.Sum32())
// wraps negative for hashes above 2^31.
func (q *queue) shardFor(j *Job) int {
	h := fnv.New32a()
	h.Write([]byte(j.Spec.shardKey()))
	return int(h.Sum32() % uint32(len(q.shards)))
}

// push enqueues j on its shard. It reports false when the shard is full
// or the queue is closed — the admission-control signal.
func (q *queue) push(j *Job) bool {
	shard := q.shardFor(j)
	q.mu.Lock()
	if q.closed || len(q.shards[shard].jobs) >= q.cap {
		q.mu.Unlock()
		return false
	}
	q.shards[shard].jobs = append(q.shards[shard].jobs, j)
	q.mu.Unlock()
	select {
	case q.wake[shard] <- struct{}{}:
	default:
	}
	return true
}

// pop dequeues the oldest job of shard, nil when empty.
func (q *queue) pop(shard int) *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := &q.shards[shard]
	if len(s.jobs) == 0 {
		return nil
	}
	j := s.jobs[0]
	copy(s.jobs, s.jobs[1:])
	s.jobs[len(s.jobs)-1] = nil
	s.jobs = s.jobs[:len(s.jobs)-1]
	return j
}

// depths returns the per-shard queued counts (index = shard = worker).
func (q *queue) depths() []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]int, len(q.shards))
	for i := range q.shards {
		out[i] = len(q.shards[i].jobs)
	}
	return out
}

// depth returns the total queued count across shards.
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for i := range q.shards {
		n += len(q.shards[i].jobs)
	}
	return n
}

// close stops admission; queued jobs remain for drain accounting.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
}

// drainPending removes and returns every queued job (used at shutdown to
// count jobs left for the journal to recover).
func (q *queue) drainPending() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []*Job
	for i := range q.shards {
		out = append(out, q.shards[i].jobs...)
		q.shards[i].jobs = nil
	}
	return out
}
