package scratch

import (
	"testing"
)

func TestFloatsLengthAndReuse(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 1000, 1 << 12, 1<<12 + 1} {
		s := Floats(n)
		if len(s) != n {
			t.Fatalf("Floats(%d) len = %d", n, len(s))
		}
		PutFloats(s)
		s2 := Floats(n)
		if len(s2) != n {
			t.Fatalf("Floats(%d) after Put len = %d", n, len(s2))
		}
		PutFloats(s2)
	}
}

func TestUint64sLength(t *testing.T) {
	s := Uint64s(300)
	if len(s) != 300 || cap(s) != 512 {
		t.Fatalf("Uint64s(300) len=%d cap=%d, want 300/512", len(s), cap(s))
	}
	PutUint64s(s)
}

func TestPutForeignBufferSafe(t *testing.T) {
	// Odd-capacity buffers must be dropped, not pooled: a later Get must
	// still return a correctly-sized slice.
	PutFloats(make([]float64, 300)) // cap 300 is not a power of two
	s := Floats(260)
	if len(s) != 260 || cap(s) < 260 {
		t.Fatalf("Floats(260) after foreign Put: len=%d cap=%d", len(s), cap(s))
	}
	PutFloats(nil) // must not panic
}

func TestClassBoundaries(t *testing.T) {
	if c, ok := class(1); !ok || c != minClass {
		t.Errorf("class(1) = %d, %v", c, ok)
	}
	if c, ok := class(1 << minClass); !ok || c != minClass {
		t.Errorf("class(256) = %d, %v", c, ok)
	}
	if c, ok := class(1<<minClass + 1); !ok || c != minClass+1 {
		t.Errorf("class(257) = %d, %v", c, ok)
	}
	if _, ok := class(1<<maxClass + 1); ok {
		t.Error("class above maxClass should not pool")
	}
	// Oversized requests still work, unpooled.
	if _, ok := putClass(3000); ok {
		t.Error("putClass(3000) should reject non-power-of-two capacity")
	}
}

func TestIntsLengthAndReuse(t *testing.T) {
	s := Ints(300)
	if len(s) != 300 || cap(s) != 512 {
		t.Fatalf("Ints(300) len=%d cap=%d, want 300/512", len(s), cap(s))
	}
	PutInts(s)
	if s2 := Ints(400); len(s2) != 400 || cap(s2) != 512 {
		t.Fatalf("Ints(400) after Put len=%d cap=%d, want 400/512", len(s2), cap(s2))
	}
	PutInts(make([]int, 300)) // a foreign capacity is dropped, not pooled
}
