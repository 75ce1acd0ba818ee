package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// journal is the crash-safe job log: an append-only JSONL file recording
// every accepted job and every terminal transition. A daemon killed hard
// (SIGKILL, OOM, power loss) replays it at startup and re-enqueues every
// job that was accepted but never finished, so accepted work survives the
// process.
//
// Record grammar (one JSON object per line):
//
//	{"op":"submit","id":"j-7","client":"c1","spec":{...}}
//	{"op":"state","id":"j-7","state":"completed"}
//	{"op":"seq","id":"j-9"}
//
// The seq record is written only by compaction: it names the highest job
// ID assigned when that job is no longer pending, so IDs keep growing
// across restarts. Writes are appended under a lock and fsynced per
// record: a submit is acknowledged to the client only after it is
// durable. Replay reads records of any length the server can write and
// tolerates a torn tail — a crash mid-write leaves at most one partial
// last line, which is skipped with a warning rather than poisoning
// recovery, as is any other line replay cannot use.
type journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// journalRecord is one line of the journal.
type journalRecord struct {
	Op     string   `json:"op"`
	ID     string   `json:"id"`
	Client string   `json:"client,omitempty"`
	Spec   *JobSpec `json:"spec,omitempty"`
	State  State    `json:"state,omitempty"`
}

// pendingJob is one recovered, not-yet-finished job from a replay.
type pendingJob struct {
	ID     string
	Client string
	Spec   JobSpec
}

// openJournal replays path (if it exists), compacts it down to the still
// pending jobs, and reopens it for appending. It returns the pending jobs
// in original submission order, the highest job sequence number seen (so
// new IDs continue the series), and any non-fatal replay warnings.
func openJournal(path string) (*journal, []pendingJob, int64, []string, error) {
	pending, maxSeq, warnings, err := replayJournal(path)
	if err != nil {
		return nil, nil, 0, warnings, err
	}
	// Compaction: rewrite the journal as the pending submits, preceded by
	// a seq record when the highest ID assigned is not among them, then
	// atomically replace the old file. Crash-safe at every point — the
	// old journal stays authoritative until the rename.
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, nil, 0, warnings, fmt.Errorf("server: compact journal: %w", err)
	}
	recs := make([]journalRecord, 0, len(pending)+1)
	if n := len(pending); maxSeq > 0 && (n == 0 || jobSeq(pending[n-1].ID) < maxSeq) {
		recs = append(recs, journalRecord{Op: "seq", ID: fmt.Sprintf("j-%d", maxSeq)})
	}
	for _, p := range pending {
		spec := p.Spec
		recs = append(recs, journalRecord{Op: "submit", ID: p.ID, Client: p.Client, Spec: &spec})
	}
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			f.Close()
			return nil, nil, 0, warnings, fmt.Errorf("server: compact journal: %w", err)
		}
		if _, err := f.Write(append(b, '\n')); err != nil {
			f.Close()
			return nil, nil, 0, warnings, fmt.Errorf("server: compact journal: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, nil, 0, warnings, fmt.Errorf("server: compact journal: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, nil, 0, warnings, fmt.Errorf("server: compact journal: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, nil, 0, warnings, fmt.Errorf("server: compact journal: %w", err)
	}
	out, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, 0, warnings, fmt.Errorf("server: open journal: %w", err)
	}
	return &journal{f: out, path: path}, pending, maxSeq, warnings, nil
}

// maxJournalRecord bounds the journal lines replay reads. The longest
// record the server writes is under 13 MiB: a client key from a header
// of at most 1 MiB and a spec from a body of at most 1 MiB, each byte
// escaped by json.Marshal to at most six.
const maxJournalRecord = 64 << 20

// replayJournal scans the journal, returning jobs submitted but never
// finished, the highest sequence number any record names, and
// tolerated-corruption warnings.
func replayJournal(path string) ([]pendingJob, int64, []string, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, nil, nil
	}
	if err != nil {
		return nil, 0, nil, fmt.Errorf("server: replay journal: %w", err)
	}
	defer f.Close()
	var (
		order    []string
		submits  = make(map[string]pendingJob)
		finished = make(map[string]bool)
		warnings []string
		maxSeq   int64
		lineNo   int
	)
	rd := bufio.NewReader(f)
	for eof := false; !eof; {
		raw, tooLong, err := readJournalLine(rd)
		if eof = err == io.EOF; err != nil && !eof {
			warnings = append(warnings, fmt.Sprintf("journal %s: stopped replay early: %v", filepath.Base(path), err))
			break
		}
		lineNo++
		if tooLong {
			warnings = append(warnings, fmt.Sprintf("journal %s line %d: skipping record longer than %d bytes", filepath.Base(path), lineNo, maxJournalRecord))
			continue
		}
		line := bytes.TrimSpace(raw)
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// A torn tail is expected after a crash; corruption anywhere
			// else is surprising but still must not block recovery of the
			// remaining jobs.
			warnings = append(warnings, fmt.Sprintf("journal %s line %d: skipping unparseable record: %v", filepath.Base(path), lineNo, err))
			continue
		}
		// Every ID a record names was assigned, whatever else the record
		// holds: new IDs must continue past it.
		maxSeq = max(maxSeq, jobSeq(rec.ID))
		switch rec.Op {
		case "submit":
			if rec.Spec == nil {
				warnings = append(warnings, fmt.Sprintf("journal %s line %d: submit without spec, skipping", filepath.Base(path), lineNo))
				continue
			}
			if err := rec.Spec.Validate(); err != nil {
				warnings = append(warnings, fmt.Sprintf("journal %s line %d: invalid spec for %s, skipping: %v", filepath.Base(path), lineNo, rec.ID, err))
				continue
			}
			if _, dup := submits[rec.ID]; !dup {
				order = append(order, rec.ID)
			}
			submits[rec.ID] = pendingJob{ID: rec.ID, Client: rec.Client, Spec: *rec.Spec}
		case "state":
			if terminal(rec.State) {
				finished[rec.ID] = true
			}
		case "seq":
		default:
			warnings = append(warnings, fmt.Sprintf("journal %s line %d: unknown op %q, skipping", filepath.Base(path), lineNo, rec.Op))
		}
	}
	var pending []pendingJob
	for _, id := range order {
		if !finished[id] {
			pending = append(pending, submits[id])
		}
	}
	sort.SliceStable(pending, func(i, j int) bool { return jobSeq(pending[i].ID) < jobSeq(pending[j].ID) })
	return pending, maxSeq, warnings, nil
}

// readJournalLine returns the next line of r, newline included, reading
// lines of any length up to maxJournalRecord. A longer line is consumed
// whole and reported as tooLong instead. err is io.EOF at the end of the
// file, with the last line's bytes if it has no newline.
func readJournalLine(r *bufio.Reader) (line []byte, tooLong bool, err error) {
	for {
		chunk, err := r.ReadSlice('\n')
		if !tooLong && len(line)+len(chunk) <= maxJournalRecord {
			line = append(line, chunk...)
		} else {
			line, tooLong = nil, true
		}
		if err != bufio.ErrBufferFull {
			return line, tooLong, err
		}
	}
}

// jobSeq extracts the numeric part of a "j-<n>" job ID (0 when foreign).
func jobSeq(id string) int64 {
	n, err := strconv.ParseInt(strings.TrimPrefix(id, "j-"), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// submit durably records an accepted job. The caller must not acknowledge
// the job to the client until this returns.
func (jl *journal) submit(j *Job) error {
	if jl == nil {
		return nil
	}
	spec := j.Spec
	return jl.append(journalRecord{Op: "submit", ID: j.ID, Client: j.Client, Spec: &spec})
}

// state records a terminal transition. Non-terminal states are never
// journaled: recovery only needs to know what finished.
func (jl *journal) state(id string, s State) error {
	if jl == nil {
		return nil
	}
	return jl.append(journalRecord{Op: "state", ID: id, State: s})
}

func (jl *journal) append(rec journalRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("server: journal append: %w", err)
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.f == nil {
		return fmt.Errorf("server: journal closed")
	}
	if _, err := jl.f.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("server: journal append: %w", err)
	}
	if err := jl.f.Sync(); err != nil {
		return fmt.Errorf("server: journal sync: %w", err)
	}
	return nil
}

// close closes the journal file.
func (jl *journal) close() error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.f == nil {
		return nil
	}
	err := jl.f.Close()
	jl.f = nil
	return err
}
