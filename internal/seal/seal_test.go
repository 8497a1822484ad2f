package seal

import (
	"math"
	"testing"
)

func TestHash(t *testing.T) {
	// sha256(`{"n":3,"f":1}`), the compact encoding of the struct below.
	const want = "5ba9464668fdcadde64e7ee1199255573e155b82c91b4651fbfc065297bb8c04"
	v := struct {
		N int `json:"n"`
		F int `json:"f"`
	}{3, 1}
	if got := Hash(v); got != want {
		t.Errorf("Hash = %s, want %s", got, want)
	}
}

func TestHashPanicsOnUnencodable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Hash(NaN) did not panic")
		}
	}()
	Hash(math.NaN())
}
