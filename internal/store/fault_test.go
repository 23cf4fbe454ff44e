package store

import (
	"bytes"
	"errors"
	"testing"

	"videocdn/internal/chunk"
)

func TestFaultZeroConfigIsTransparent(t *testing.T) {
	f := NewFault(NewMem(), FaultConfig{Seed: 1})
	id := chunk.ID{Video: 7, Index: 3}
	data := []byte("payload")
	if err := f.Put(id, data); err != nil {
		t.Fatal(err)
	}
	if !f.Has(id) || f.Len() != 1 {
		t.Error("Has/Len should pass through")
	}
	got, err := f.Get(id, nil)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := f.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Get(id, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after delete = %v, want ErrNotFound", err)
	}
	c := f.Counts()
	if c.PutFaults+c.GetFaults+c.DeleteFaults != 0 {
		t.Errorf("zero config injected faults: %+v", c)
	}
}

func TestFaultInjectsAndPreservesInnerState(t *testing.T) {
	inner := NewMem()
	f := NewFault(inner, FaultConfig{Seed: 42, PutRate: 0.5, GetRate: 0.5, DeleteRate: 0.5})
	id := func(i int) chunk.ID { return chunk.ID{Video: 1, Index: uint32(i)} }

	var putFaults int
	for i := 0; i < 200; i++ {
		err := f.Put(id(i), []byte{byte(i)})
		switch {
		case errors.Is(err, ErrInjectedNoSpace):
			putFaults++
			if inner.Has(id(i)) {
				t.Fatal("faulted Put must not store bytes")
			}
		case err != nil:
			t.Fatal(err)
		default:
			if !inner.Has(id(i)) {
				t.Fatal("successful Put must reach the inner store")
			}
		}
	}
	if putFaults == 0 || putFaults == 200 {
		t.Fatalf("putFaults = %d, want some but not all at rate 0.5", putFaults)
	}

	var getFaults, getOKs int
	for i := 0; i < 200; i++ {
		got, err := f.Get(id(i), nil)
		switch {
		case errors.Is(err, ErrNotFound):
			if inner.Has(id(i)) {
				t.Fatal("present chunk reported ErrNotFound")
			}
		case errors.Is(err, ErrInjectedIO):
			getFaults++
			if !inner.Has(id(i)) {
				t.Fatal("Get fault injected on an absent chunk")
			}
		case err != nil:
			t.Fatal(err)
		default:
			getOKs++
			if !bytes.Equal(got, []byte{byte(i)}) {
				t.Fatalf("Get(%d) = %v", i, got)
			}
		}
	}
	if getFaults == 0 || getOKs == 0 {
		t.Fatalf("getFaults = %d, getOKs = %d; want a mix", getFaults, getOKs)
	}

	var delFaults int
	for i := 0; i < 200; i++ {
		had := inner.Has(id(i))
		if err := f.Delete(id(i)); errors.Is(err, ErrInjectedIO) {
			delFaults++
			if inner.Has(id(i)) != had {
				t.Fatal("faulted Delete must leave the chunk as-is")
			}
		} else if err != nil {
			t.Fatal(err)
		} else if inner.Has(id(i)) {
			t.Fatal("successful Delete must remove the chunk")
		}
	}
	if delFaults == 0 {
		t.Fatal("no Delete faults at rate 0.5")
	}

	c := f.Counts()
	if int(c.PutFaults) != putFaults || int(c.GetFaults) != getFaults || int(c.DeleteFaults) != delFaults {
		t.Errorf("Counts %+v disagree with observed %d/%d/%d", c, putFaults, getFaults, delFaults)
	}
	if c.Puts != 200 || c.Deletes != 200 {
		t.Errorf("op counts: %+v", c)
	}
}

// TestFaultPutStream: PutStream draws Put's verdict and counters, and
// a faulted stream neither reaches the inner store nor reads r.
func TestFaultPutStream(t *testing.T) {
	inner := NewMem()
	f := NewFault(inner, FaultConfig{Seed: 42, PutRate: 0.5})
	var faults int
	for i := 0; i < 200; i++ {
		id := chunk.ID{Video: 2, Index: uint32(i)}
		r := bytes.NewReader([]byte{byte(i)})
		n, err := f.PutStream(id, r, 1, nil)
		switch {
		case errors.Is(err, ErrInjectedNoSpace):
			faults++
			if inner.Has(id) || r.Len() != 1 {
				t.Fatal("faulted PutStream must not read r or store bytes")
			}
		case err != nil:
			t.Fatal(err)
		case n != 1 || !inner.Has(id):
			t.Fatalf("successful PutStream = %d bytes, inner has %v", n, inner.Has(id))
		}
	}
	if faults == 0 || faults == 200 {
		t.Fatalf("faults = %d, want some but not all at rate 0.5", faults)
	}
	if c := f.Counts(); c.Puts != 200 || int(c.PutFaults) != faults {
		t.Errorf("Counts %+v, want 200 puts and %d faults", c, faults)
	}
}

func TestFaultDeterministicUnderSeed(t *testing.T) {
	run := func() []bool {
		f := NewFault(NewMem(), FaultConfig{Seed: 99, PutRate: 0.3})
		verdicts := make([]bool, 100)
		for i := range verdicts {
			verdicts[i] = errors.Is(f.Put(chunk.ID{Index: uint32(i)}, []byte("x")), ErrInjectedNoSpace)
		}
		return verdicts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault sequence diverged at op %d under the same seed", i)
		}
	}
}

func TestFaultSetConfigPhases(t *testing.T) {
	f := NewFault(NewMem(), FaultConfig{Seed: 5})
	id := chunk.ID{Video: 3}
	if err := f.Put(id, []byte("x")); err != nil {
		t.Fatal(err)
	}
	f.SetConfig(FaultConfig{GetRate: 1}) // disk starts failing
	if _, err := f.Get(id, nil); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("Get under GetRate=1 = %v, want ErrInjectedIO", err)
	}
	f.SetConfig(FaultConfig{}) // disk heals
	if _, err := f.Get(id, nil); err != nil {
		t.Fatalf("Get after heal: %v", err)
	}
}
