package store

// Conformance suite for the two streaming contracts: PutStream (fills
// pumped through a fixed buffer) and SectionGetter (chunks exposed as
// file sections for the kernel serve path). Every store in stores() is
// run against every case; stores without SectionGetter are exercised
// for graceful degradation (ErrNoSection) rather than skipped
// silently.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"videocdn/internal/chunk"
)

// readSection preads a section's bytes without touching the fd's
// position — exactly what the serve path's dup-and-seek protocol
// guarantees it can do concurrently.
func readSection(t *testing.T, sec Section) []byte {
	t.Helper()
	buf := make([]byte, sec.Size())
	if _, err := sec.File().ReadAt(buf, sec.Offset()); err != nil {
		t.Fatalf("section ReadAt: %v", err)
	}
	return buf
}

// errAfterReader yields n bytes of data then fails.
type errAfterReader struct {
	data []byte
	err  error
}

func (r *errAfterReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

func TestPutStreamMatchesPut(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			id := chunk.ID{Video: 11, Index: 2}
			data := bytes.Repeat([]byte("stream me "), 40) // spans several scratch reads
			n, err := s.PutStream(id, bytes.NewReader(data), int64(len(data)), make([]byte, 64))
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(len(data)) {
				t.Fatalf("PutStream length = %d, want %d", n, len(data))
			}
			got, err := s.Get(id, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Errorf("Get after PutStream diverges (%d vs %d bytes)", len(got), len(data))
			}
			// nil scratch must work too (implementations pick a default).
			if _, err := s.PutStream(id, bytes.NewReader(data), int64(len(data)), nil); err != nil {
				t.Fatalf("nil scratch: %v", err)
			}
		})
	}
}

func TestPutStreamOversizeAndReaderError(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			id := chunk.ID{Video: 12, Index: 5}
			prev := []byte("previous value survives every failed stream")
			if err := s.Put(id, prev); err != nil {
				t.Fatal(err)
			}

			// One byte over max → ErrTooLarge, prior value intact.
			over := bytes.Repeat([]byte("x"), 101)
			if _, err := s.PutStream(id, bytes.NewReader(over), 100, make([]byte, 32)); !errors.Is(err, ErrTooLarge) {
				t.Fatalf("oversize stream: got %v, want ErrTooLarge", err)
			}
			if got, err := s.Get(id, nil); err != nil || !bytes.Equal(got, prev) {
				t.Fatalf("value clobbered by failed oversize stream: %q, %v", got, err)
			}

			// Exactly max is accepted.
			exact := bytes.Repeat([]byte("y"), 100)
			if _, err := s.PutStream(id, bytes.NewReader(exact), 100, make([]byte, 32)); err != nil {
				t.Fatalf("exact-max stream: %v", err)
			}
			if err := s.Put(id, prev); err != nil {
				t.Fatal(err)
			}

			// A reader that dies mid-stream: its error comes back (not
			// wrapped into a store error) and the prior value survives.
			boom := errors.New("mid-body truncation")
			_, err := s.PutStream(id, &errAfterReader{data: []byte("partial"), err: boom}, 100, make([]byte, 4))
			if !errors.Is(err, boom) {
				t.Fatalf("reader error: got %v, want %v", err, boom)
			}
			if got, gerr := s.Get(id, nil); gerr != nil || !bytes.Equal(got, prev) {
				t.Fatalf("value clobbered by truncated stream: %q, %v", got, gerr)
			}
		})
	}
}

func TestSectionMatchesGet(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			id := chunk.ID{Video: 21, Index: 0}
			data := bytes.Repeat([]byte("section bytes "), 16)
			if err := s.Put(id, data); err != nil {
				t.Fatal(err)
			}
			sg, ok := s.(SectionGetter)
			if !ok {
				t.Skipf("%s has no section capability", name)
			}
			sec, err := sg.GetSection(id)
			if errors.Is(err, ErrNoSection) {
				// Legitimate degradation (RAM-backed chain); the serve
				// path falls through to borrow/copy.
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer sec.Release()
			if sec.Size() != int64(len(data)) {
				t.Fatalf("section size = %d, want %d", sec.Size(), len(data))
			}
			if got := readSection(t, sec); !bytes.Equal(got, data) {
				t.Errorf("section bytes diverge from Put data")
			}
			got, err := s.Get(id, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, readSection(t, sec)) {
				t.Errorf("section bytes diverge from Get")
			}
			// Absent chunk → ErrNotFound, not a phantom section.
			if _, err := sg.GetSection(chunk.ID{Video: 21, Index: 99}); !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrNoSection) {
				t.Errorf("absent chunk: %v", err)
			}
		})
	}
}

// TestSectionConcurrent hammers GetSection + pread against writes of
// other keys under -race: sections of live chunks must stay readable
// and byte-stable while the store churns around them.
func TestSectionConcurrent(t *testing.T) {
	for name, s := range stores(t) {
		sg, ok := s.(SectionGetter)
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			stable := chunk.ID{Video: 31, Index: 7}
			want := bytes.Repeat([]byte("pin me "), 10)
			if err := s.Put(stable, want); err != nil {
				t.Fatal(err)
			}
			if _, err := sg.GetSection(stable); errors.Is(err, ErrNoSection) {
				t.Skipf("%s yields no sections", name)
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						sec, err := sg.GetSection(stable)
						if err != nil {
							t.Errorf("GetSection: %v", err)
							return
						}
						buf := make([]byte, sec.Size())
						_, rerr := sec.File().ReadAt(buf, sec.Offset())
						sec.Release()
						if rerr != nil {
							t.Errorf("ReadAt: %v", rerr)
							return
						}
						if !bytes.Equal(buf, want) {
							t.Errorf("section bytes changed under concurrency")
							return
						}
					}
				}(g)
			}
			// Churn neighboring keys so slots/files recycle around the
			// pinned chunk.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					id := chunk.ID{Video: 32, Index: uint32(i % 8)}
					_ = s.Put(id, []byte(strings.Repeat("c", 1+i%64)))
					_ = s.Delete(id)
				}
			}()
			wg.Wait()
		})
	}
}

// TestSectionOutlivesDelete pins the crash-safety half of the section
// contract: bytes already handed to the kernel must stay valid when
// the chunk is deleted mid-send (FS: the open fd keeps the inode;
// slab: the pin quarantines the slot until Release).
func TestSectionOutlivesDelete(t *testing.T) {
	for name, s := range stores(t) {
		sg, ok := s.(SectionGetter)
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			id := chunk.ID{Video: 41, Index: 3}
			want := bytes.Repeat([]byte("outlive "), 12)
			if err := s.Put(id, want); err != nil {
				t.Fatal(err)
			}
			sec, err := sg.GetSection(id)
			if errors.Is(err, ErrNoSection) {
				t.Skipf("%s yields no sections", name)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Delete(id); err != nil {
				t.Fatal(err)
			}
			// The deleted chunk's lent bytes must still read back intact.
			if got := readSection(t, sec); !bytes.Equal(got, want) {
				t.Errorf("section bytes corrupted by racing Delete")
			}
			// Slab only: while the section is out, the slot must not be
			// recycled by new writes (quarantine) — overwrite pressure on
			// other keys must leave the lent bytes alone.
			for i := 0; i < 32; i++ {
				_ = s.Put(chunk.ID{Video: 42, Index: uint32(i)}, []byte(fmt.Sprintf("churn %d", i)))
			}
			if got := readSection(t, sec); !bytes.Equal(got, want) {
				t.Errorf("section bytes recycled while lent")
			}
			sec.Release()
			if s.Has(id) {
				t.Errorf("chunk still present after Delete")
			}
		})
	}
}
