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
	"slices"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// checkpointMagic heads every serialized checkpoint; the version byte
// follows it. A file of any other version is rejected, not misread.
const (
	checkpointMagic   = "DLCK"
	checkpointVersion = 2
)

// ErrCheckpoint is returned (wrapped) for malformed checkpoint files.
var ErrCheckpoint = errors.New("resilience: invalid checkpoint")

// Checkpoint is a full snapshot of a training run mid-flight: everything
// needed to continue (or roll back) with bit-identical results — the
// network weights, the optimizer state, the batch-iterator position and
// the dropout mask RNGs, plus the loss record accumulated so far. It is
// plain data; the core package captures and restores it, through
// CaptureParams and RestoreParams for the weights.
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
	// Params holds the network weights, one record per parameter in
	// network order.
	Params []ParamRecord
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

// ParamRecord is one network parameter's weights in a checkpoint.
type ParamRecord struct {
	Name   string
	Shape  []int
	Values []float64
}

// CaptureParams copies net's parameter values out, so training on
// after the capture does not move the snapshot.
func CaptureParams(net *nn.Network) []ParamRecord {
	params := net.Params()
	recs := make([]ParamRecord, len(params))
	for i, p := range params {
		recs[i] = ParamRecord{Name: p.Name, Shape: p.Value.Shape(), Values: slices.Clone(p.Value.Data())}
	}
	return recs
}

// RestoreParams copies records taken by CaptureParams into net, then
// re-applies the connection masks of its Conv2D layers. The records must
// match the network's parameters in count, and in name and shape one by
// one, in order; a checkpoint that does not match leaves net unchanged.
// Restoring weights into a model defined in code is how the paper's
// frameworks reload a snapshot.
func RestoreParams(net *nn.Network, recs []ParamRecord) error {
	params := net.Params()
	if len(recs) != len(params) {
		return fmt.Errorf("%w: checkpoint has %d parameters, network has %d", ErrCheckpoint, len(recs), len(params))
	}
	for i, p := range params {
		r := recs[i]
		if r.Name != p.Name {
			return fmt.Errorf("%w: parameter %d is %q, network has %q", ErrCheckpoint, i, r.Name, p.Name)
		}
		if !slices.Equal(r.Shape, p.Value.Shape()) || len(r.Values) != p.Value.Len() {
			return fmt.Errorf("%w: %s has shape %v and %d values, network wants shape %v", ErrCheckpoint, p.Name, r.Shape, len(r.Values), p.Value.Shape())
		}
	}
	for i, p := range params {
		copy(p.Value.Data(), recs[i].Values)
	}
	for _, l := range net.Layers() {
		if conv, ok := l.(*nn.Conv2D); ok {
			conv.ApplyMask()
		}
	}
	return nil
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
