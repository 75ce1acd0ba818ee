package server

import (
	"fmt"
	"testing"
)

func qjob(id string, seed uint64) *Job {
	spec := JobSpec{Framework: "tf", Dataset: "mnist", Seed: seed}
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return newJob(id, spec, "", false, nil)
}

func TestQueueFIFOWithinShard(t *testing.T) {
	q := newQueue(1, 4)
	for i := 0; i < 3; i++ {
		if !q.push(qjob(fmt.Sprintf("j-%d", i), 42)) {
			t.Fatalf("push %d rejected below capacity", i)
		}
	}
	for i := 0; i < 3; i++ {
		j := q.pop(0)
		if j == nil || j.ID != fmt.Sprintf("j-%d", i) {
			t.Fatalf("pop %d = %v, want j-%d", i, j, i)
		}
	}
	if q.pop(0) != nil {
		t.Fatal("pop on empty shard returned a job")
	}
}

func TestQueueRejectsAtCapacity(t *testing.T) {
	q := newQueue(1, 2)
	if !q.push(qjob("j-1", 42)) || !q.push(qjob("j-2", 42)) {
		t.Fatal("pushes below capacity rejected")
	}
	if q.push(qjob("j-3", 42)) {
		t.Fatal("push above per-shard capacity admitted")
	}
	if q.depth() != 2 {
		t.Fatalf("depth = %d, want 2", q.depth())
	}
}

func TestQueueShardAffinity(t *testing.T) {
	q := newQueue(4, 4)
	// Same (scale, seed) always routes to the same shard; the cache-warm
	// worker owns the whole job family.
	a, b := qjob("j-1", 7), qjob("j-2", 7)
	if q.shardFor(a) != q.shardFor(b) {
		t.Fatalf("equal shard keys routed apart: %d vs %d", q.shardFor(a), q.shardFor(b))
	}
	// Distinct seeds spread across shards (FNV over 64 seeds must hit
	// more than one of 4 shards).
	seen := map[int]bool{}
	for seed := uint64(1); seed <= 64; seed++ {
		seen[q.shardFor(qjob("j-x", seed))] = true
	}
	if len(seen) < 2 {
		t.Fatalf("64 seeds all hashed to one shard: %v", seen)
	}
	// Every index must be a real shard, also where int is 32 bits and a
	// hash above 2^31 would wrap negative; 3 shards is not a power of two,
	// so a wrapped hash shows up as a negative remainder.
	q3 := newQueue(3, 4)
	for seed := uint64(1); seed <= 64; seed++ {
		if i := q3.shardFor(qjob("j-x", seed)); i < 0 || i >= 3 {
			t.Fatalf("seed %d routed to shard %d, want [0, 3)", seed, i)
		}
	}
}

func TestQueueCloseStopsAdmissionAndDrains(t *testing.T) {
	q := newQueue(2, 4)
	if !q.push(qjob("j-1", 1)) || !q.push(qjob("j-2", 2)) {
		t.Fatal("setup pushes rejected")
	}
	q.close()
	if q.push(qjob("j-3", 3)) {
		t.Fatal("push admitted after close")
	}
	left := q.drainPending()
	if len(left) != 2 {
		t.Fatalf("drainPending returned %d jobs, want 2", len(left))
	}
	if q.depth() != 0 {
		t.Fatalf("depth after drain = %d, want 0", q.depth())
	}
}
