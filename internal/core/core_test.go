package core

import (
	"errors"
	"math"
	"testing"
)

func TestDecisionString(t *testing.T) {
	tests := []struct {
		d    Decision
		want string
	}{
		{Serve, "serve"},
		{Redirect, "redirect"},
		{Decision(99), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.d.String(); got != tt.want {
			t.Errorf("Decision(%d).String() = %q, want %q", tt.d, got, tt.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{ChunkSize: 1024, DiskChunks: 10}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := (Config{ChunkSize: 0, DiskChunks: 10}).Validate(); !errors.Is(err, ErrBadChunkSize) {
		t.Errorf("zero chunk size: got %v", err)
	}
	if err := (Config{ChunkSize: -5, DiskChunks: 10}).Validate(); !errors.Is(err, ErrBadChunkSize) {
		t.Errorf("negative chunk size: got %v", err)
	}
	if err := (Config{ChunkSize: 1024, DiskChunks: 0}).Validate(); !errors.Is(err, ErrBadDiskSize) {
		t.Errorf("zero disk: got %v", err)
	}
}

func TestCheckAlpha(t *testing.T) {
	for _, a := range []float64{1e-9, 1, 2, math.MaxFloat64} {
		if err := CheckAlpha(a); err != nil {
			t.Errorf("CheckAlpha(%v) = %v", a, err)
		}
	}
	for _, a := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := CheckAlpha(a); !errors.Is(err, ErrBadAlpha) {
			t.Errorf("CheckAlpha(%v) = %v, want ErrBadAlpha", a, err)
		}
	}
}

func TestSentinelErrorsDistinct(t *testing.T) {
	errs := []error{ErrBadChunkSize, ErrBadDiskSize, ErrBadAlpha, ErrBadGamma, ErrBadWindow, ErrBadFutureN}
	for i, a := range errs {
		if a.Error() == "" {
			t.Errorf("error %d has empty message", i)
		}
		for j, b := range errs {
			if i != j && errors.Is(a, b) {
				t.Errorf("errors %d and %d alias", i, j)
			}
		}
	}
}
