package resilience

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"repro/internal/data"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// checkpointMagic heads every serialized checkpoint; the version byte
// follows it.
const (
	checkpointMagic   = "DLCK"
	checkpointVersion = 1
)

// ErrCheckpoint is returned (wrapped) for malformed checkpoint files.
var ErrCheckpoint = errors.New("resilience: invalid checkpoint")

// Checkpoint is a full snapshot of a training run mid-flight: everything
// needed to continue (or roll back) with bit-identical results — the
// parameter snapshot (nn.SaveParams bytes), the optimizer state, the
// batch-iterator position and the dropout mask RNGs, plus the loss record
// accumulated so far. It is plain data; the core package captures and
// restores it.
type Checkpoint struct {
	// Cell identifies the run the snapshot belongs to; core keys it by
	// matrix cell, seed and scale.
	Cell string
	// Iteration is the number of completed training iterations; resuming
	// continues at this iteration index.
	Iteration int
	// Attempt and LRScale carry the recovery state across a resume: how
	// many retries were consumed and the learning-rate scale in effect.
	Attempt int
	LRScale float64
	// Params is the nn.SaveParams snapshot of the network weights.
	Params []byte
	// Optim is the optimizer's mutable state.
	Optim optim.State
	// Batches is the training batch iterator's position.
	Batches data.BatchState
	// DropoutRNGs are the mask-RNG states of the network's dropout
	// layers, in layer order.
	DropoutRNGs []tensor.RNGState
	// LossIters/LossValues are the recorded loss-history points.
	LossIters  []int
	LossValues []float64
	// LastLoss is the most recent training loss.
	LastLoss float64
}

// Encode writes the checkpoint to w (magic + version + gob body).
func (c *Checkpoint) Encode(w io.Writer) error {
	if _, err := w.Write([]byte{checkpointMagic[0], checkpointMagic[1], checkpointMagic[2], checkpointMagic[3], checkpointVersion}); err != nil {
		return fmt.Errorf("resilience: encode checkpoint: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(c); err != nil {
		return fmt.Errorf("resilience: encode checkpoint: %w", err)
	}
	return nil
}

// DecodeCheckpoint reads a checkpoint written by Encode.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	head := make([]byte, 5)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("%w: missing header: %v", ErrCheckpoint, err)
	}
	if string(head[:4]) != checkpointMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCheckpoint, head[:4])
	}
	if head[4] != checkpointVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCheckpoint, head[4])
	}
	var c Checkpoint
	if err := gob.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("%w: body: %v", ErrCheckpoint, err)
	}
	return &c, nil
}

// Store persists checkpoints under one directory, one file per matrix
// cell. A nil *Store disables persistence (in-memory rollback still
// works); all methods are nil-receiver safe.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a checkpoint directory.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("%w: empty checkpoint directory", ErrCheckpoint)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resilience: checkpoint dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Path returns the checkpoint file path for a cell. Cell keys contain
// spaces and slashes; the filename keeps a sanitized prefix for human
// inspection and appends a short hash so distinct cells never collide.
func (s *Store) Path(cell string) string {
	safe := make([]rune, 0, len(cell))
	for _, r := range cell {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.', r == '_':
			safe = append(safe, r)
		default:
			safe = append(safe, '_')
		}
	}
	h := fnv.New32a()
	h.Write([]byte(cell))
	return filepath.Join(s.dir, fmt.Sprintf("%s-%08x.ckpt", string(safe), h.Sum32()))
}

// Save atomically writes the checkpoint for its cell (temp file + rename,
// so a kill mid-write never leaves a torn checkpoint). A nil store is a
// no-op.
func (s *Store) Save(c *Checkpoint) error {
	if s == nil {
		return nil
	}
	path := s.Path(c.Cell)
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("resilience: save checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("resilience: save checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("resilience: save checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("resilience: save checkpoint: %w", err)
	}
	return nil
}

// Load reads the cell's checkpoint; found is false (with a nil error)
// when none exists or the store is nil.
func (s *Store) Load(cell string) (c *Checkpoint, found bool, err error) {
	if s == nil {
		return nil, false, nil
	}
	f, err := os.Open(s.Path(cell))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("resilience: load checkpoint: %w", err)
	}
	defer f.Close()
	c, err = DecodeCheckpoint(f)
	if err != nil {
		return nil, false, fmt.Errorf("resilience: load checkpoint %s: %w", s.Path(cell), err)
	}
	if c.Cell != cell {
		return nil, false, fmt.Errorf("%w: checkpoint is for cell %q, want %q", ErrCheckpoint, c.Cell, cell)
	}
	return c, true, nil
}
