package cafe

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/ordtree"
)

// A warmed video cache represents days of accumulated popularity
// signal; losing it on restart means days of elevated ingress and
// redirects while it re-warms. Save/Load serialize the complete Cafe
// state — configuration, IAT table and cached-chunk set — in a compact
// varint format, so a server can persist on shutdown and resume
// exactly where it left off. (The chunk *bytes* live in a store.FS and
// survive restarts on their own; this is the decision state.)

// snapshotMagic identifies the format; bump the digit on breaking
// changes.
var snapshotMagic = [8]byte{'C', 'A', 'F', 'E', 'S', 'N', 'P', '1'}

// Save writes the cache's full state to w.
func (c *Cache) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	writeU := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	writeF := func(v float64) error { return writeU(math.Float64bits(v)) }
	writeB := func(v bool) error {
		if v {
			return writeU(1)
		}
		return writeU(0)
	}
	fields := []func() error{
		func() error { return writeU(uint64(c.cfg.ChunkSize)) },
		func() error { return writeU(uint64(c.cfg.DiskChunks)) },
		func() error { return writeF(c.alpha) },
		func() error { return writeF(c.opt.Gamma) },
		func() error { return writeF(c.opt.WindowScale) },
		func() error { return writeB(c.opt.FileLevel) },
		func() error { return writeB(c.opt.NoVideoEstimate) },
		func() error { return writeU(uint64(c.firstTime)) },
		func() error { return writeU(uint64(c.lastTime)) },
		func() error { return writeU(uint64(c.requests)) },
		func() error { return writeB(c.started) },
	}
	for _, f := range fields {
		if err := f(); err != nil {
			return err
		}
	}
	// IAT table. dt = unknownDT is encoded as a flag.
	if err := writeU(uint64(len(c.iat))); err != nil {
		return err
	}
	for key, e := range c.iat {
		if err := writeU(key); err != nil {
			return err
		}
		if e.dt == unknownDT {
			if err := writeU(0); err != nil {
				return err
			}
		} else {
			if err := writeU(1); err != nil {
				return err
			}
			if err := writeF(e.dt); err != nil {
				return err
			}
		}
		if err := writeU(uint64(c.lastSeen(e))); err != nil {
			return err
		}
	}
	// Cached chunk set (tree keys are recomputed on load from the IAT
	// state — they are a pure function of it).
	if err := writeU(uint64(c.tree.Len())); err != nil {
		return err
	}
	var werr error
	c.tree.Ascend(func(id uint64, _ float64) bool {
		werr = writeU(id)
		return werr == nil
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// Load reconstructs a Cafe cache from a Save snapshot.
func Load(r io.Reader) (*Cache, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("cafe: reading snapshot magic: %w", err)
	}
	if magic != snapshotMagic {
		return nil, errors.New("cafe: not a cafe snapshot (bad magic)")
	}
	readU := func() (uint64, error) { return binary.ReadUvarint(br) }
	readF := func() (float64, error) {
		v, err := readU()
		return math.Float64frombits(v), err
	}
	readB := func() (bool, error) {
		v, err := readU()
		return v != 0, err
	}

	var cfg core.Config
	var opt Options
	var alpha float64
	var firstTime, lastTime uint64
	var requests uint64
	var started bool
	steps := []func() error{
		func() error { v, err := readU(); cfg.ChunkSize = int64(v); return err },
		func() error { v, err := readU(); cfg.DiskChunks = int(v); return err },
		func() error { var err error; alpha, err = readF(); return err },
		func() error { var err error; opt.Gamma, err = readF(); return err },
		func() error { var err error; opt.WindowScale, err = readF(); return err },
		func() error { var err error; opt.FileLevel, err = readB(); return err },
		func() error { var err error; opt.NoVideoEstimate, err = readB(); return err },
		func() error { var err error; firstTime, err = readU(); return err },
		func() error { var err error; lastTime, err = readU(); return err },
		func() error { var err error; requests, err = readU(); return err },
		func() error { var err error; started, err = readB(); return err },
	}
	for _, f := range steps {
		if err := f(); err != nil {
			return nil, fmt.Errorf("cafe: corrupt snapshot header: %w", err)
		}
	}
	c, err := New(cfg, alpha, opt)
	if err != nil {
		return nil, fmt.Errorf("cafe: snapshot carries invalid configuration: %w", err)
	}
	c.firstTime = int64(firstTime)
	c.lastTime = int64(lastTime)
	c.requests = int64(requests)
	c.started = started
	if started && !c.inClock(c.lastTime) {
		return nil, fmt.Errorf("cafe: snapshot clock spans %d..%d", c.firstTime, c.lastTime)
	}

	n, err := readU()
	if err != nil {
		return nil, err
	}
	if n > 0 && !started {
		return nil, errors.New("cafe: snapshot holds IAT state but never saw a request")
	}
	for i := uint64(0); i < n; i++ {
		key, err := readU()
		if err != nil {
			return nil, fmt.Errorf("cafe: corrupt IAT entry %d: %w", i, err)
		}
		known, err := readB()
		if err != nil {
			return nil, err
		}
		e := iatEntry{dt: unknownDT}
		if known {
			if e.dt, err = readF(); err != nil {
				return nil, err
			}
			if !(e.dt >= 0 && e.dt <= math.MaxFloat64) {
				return nil, fmt.Errorf("cafe: IAT entry %d has dt %v", i, e.dt)
			}
		}
		tv, err := readU()
		if err != nil {
			return nil, err
		}
		if !c.inClock(int64(tv)) || int64(tv) > c.lastTime {
			return nil, fmt.Errorf("cafe: IAT entry %d was seen at %d, outside %d..%d", i, int64(tv), c.firstTime, c.lastTime)
		}
		e.t = c.offset(int64(tv))
		c.iat[key] = e
	}
	m, err := readU()
	if err != nil {
		return nil, err
	}
	if m > uint64(cfg.DiskChunks) {
		return nil, fmt.Errorf("cafe: snapshot holds %d chunks for a %d-chunk disk", m, cfg.DiskChunks)
	}
	for i := uint64(0); i < m; i++ {
		key, err := readU()
		if err != nil {
			return nil, fmt.Errorf("cafe: corrupt chunk entry %d: %w", i, err)
		}
		id := chunk.FromKey(key)
		if c.nodeOf(id) != ordtree.Nil {
			return nil, fmt.Errorf("cafe: snapshot lists chunk %s twice", id)
		}
		k := c.iatKey(id)
		e, ok := c.iat[k]
		if !ok || e.dt == unknownDT {
			return nil, fmt.Errorf("cafe: snapshot chunk %s has no IAT state", id)
		}
		x := c.tree.Insert(key, c.treeKey(e))
		if !c.opt.FileLevel {
			e.node = x
			c.iat[k] = e
		}
		c.videoSet(id.Video)[id.Index] = x
	}
	return c, nil
}

// inClock reports whether t lies in the span an IAT entry's int32
// offset can express, firstTime..firstTime+MaxInt32.
func (c *Cache) inClock(t int64) bool {
	return t >= c.firstTime && uint64(t)-uint64(c.firstTime) <= math.MaxInt32
}
