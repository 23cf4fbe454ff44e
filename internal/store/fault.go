package store

import (
	"errors"
	"io"
	"math/rand"
	"sync"

	"videocdn/internal/chunk"
)

// Injected fault sentinels. Portable stand-ins for the EIO / ENOSPC a
// real disk raises, so tests do not depend on syscall numbers.
var (
	// ErrInjectedIO models a read/write I/O error (EIO).
	ErrInjectedIO = errors.New("store: injected I/O error")
	// ErrInjectedNoSpace models a full disk (ENOSPC).
	ErrInjectedNoSpace = errors.New("store: injected no space left on device")
)

// FaultConfig tunes the Fault wrapper's failure injection. All rates
// are probabilities in [0,1]; a zero config injects nothing.
type FaultConfig struct {
	// Seed makes the fault sequence reproducible. The same seed and
	// operation sequence yields the same faults.
	Seed int64
	// PutRate injects ErrInjectedNoSpace on Put and PutStream — the
	// canonical way a cache disk fails while admitting a chunk.
	PutRate float64
	// GetRate injects ErrInjectedIO on Get of a *present* chunk (absent
	// chunks still return ErrNotFound so the hit/miss decision stays
	// truthful; a disk error on a miss is indistinguishable anyway).
	GetRate float64
	// DeleteRate injects ErrInjectedIO on Delete.
	DeleteRate float64
}

// FaultCounts reports what the wrapper actually did.
type FaultCounts struct {
	Puts, Gets, Deletes                int64 // operations attempted
	PutFaults, GetFaults, DeleteFaults int64 // operations failed by injection
}

// Fault wraps a Store and injects deterministic, seeded disk failures
// — the storage analogue of edge.FaultOrigin, extending fault
// injection from the origin line of defense to the cache itself. The
// wrapped store's bytes are never touched by a faulted operation: an
// injected Put failure stores nothing, an injected Get failure reads
// nothing, so the inner store stays consistent.
//
// Fault deliberately does not forward the BorrowGetter capability:
// every read funnels through Get so GetRate governs the whole read
// path. Has and Len pass through unfaulted — metadata probes are not
// where disks die, and the edge's admission logic must see the truth.
//
// Safe for concurrent use; the shared rand.Rand is guarded by a mutex,
// so the fault *sequence* is deterministic even though its assignment
// to concurrent operations is scheduling-dependent.
type Fault struct {
	inner Store

	mu     sync.Mutex
	rng    *rand.Rand
	cfg    FaultConfig
	counts FaultCounts
}

// NewFault wraps inner with the given fault config.
func NewFault(inner Store, cfg FaultConfig) *Fault {
	return &Fault{inner: inner, rng: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg}
}

// SetConfig swaps the fault rates mid-run (scripting chaos phases:
// healthy → failing → healed). The seed and random stream continue;
// pass the current config with changed rates to keep determinism.
func (f *Fault) SetConfig(cfg FaultConfig) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cfg.PutRate = cfg.PutRate
	f.cfg.GetRate = cfg.GetRate
	f.cfg.DeleteRate = cfg.DeleteRate
}

// Counts snapshots the operation and fault counters.
func (f *Fault) Counts() FaultCounts {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts
}

// verdict draws one fault decision and bumps the matching counters.
// ops and faults point into f.counts.
func (f *Fault) verdict(rate float64, ops, faults *int64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	*ops++
	if rate > 0 && f.rng.Float64() < rate {
		*faults++
		return true
	}
	return false
}

// Put implements Store, failing with ErrInjectedNoSpace at PutRate.
func (f *Fault) Put(id chunk.ID, data []byte) error {
	if f.verdict(f.cfg.PutRate, &f.counts.Puts, &f.counts.PutFaults) {
		return ErrInjectedNoSpace
	}
	return f.inner.Put(id, data)
}

// PutStream implements Store under Put's verdict and counters: an
// injected failure returns ErrInjectedNoSpace before r is read, and
// the inner store is not touched.
func (f *Fault) PutStream(id chunk.ID, r io.Reader, max int64, scratch []byte) (int64, error) {
	if f.verdict(f.cfg.PutRate, &f.counts.Puts, &f.counts.PutFaults) {
		return 0, ErrInjectedNoSpace
	}
	return f.inner.PutStream(id, r, max, scratch)
}

// Get implements Store, failing reads of present chunks with
// ErrInjectedIO at GetRate. Absent chunks return ErrNotFound unfaulted.
func (f *Fault) Get(id chunk.ID, buf []byte) ([]byte, error) {
	if !f.inner.Has(id) {
		return nil, ErrNotFound
	}
	if f.verdict(f.cfg.GetRate, &f.counts.Gets, &f.counts.GetFaults) {
		return nil, ErrInjectedIO
	}
	return f.inner.Get(id, buf)
}

// Delete implements Store, failing with ErrInjectedIO at DeleteRate.
// A faulted delete leaves the chunk in place, as a failed disk op would.
func (f *Fault) Delete(id chunk.ID) error {
	if f.verdict(f.cfg.DeleteRate, &f.counts.Deletes, &f.counts.DeleteFaults) {
		return ErrInjectedIO
	}
	return f.inner.Delete(id)
}

// Has implements Store (pass-through, never faulted).
func (f *Fault) Has(id chunk.ID) bool { return f.inner.Has(id) }

// Len implements Store (pass-through, never faulted).
func (f *Fault) Len() int { return f.inner.Len() }
