// Package seal computes the content hash every sealed format in the
// repository uses: sweep job IDs and checkpoint checksums, cache
// snapshot checksums and the plan-key sharding hash.
package seal

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Hash returns the lowercase hex SHA-256 of v's compact JSON encoding.
// Checksums on disk and on the wire, job IDs and ring placement all
// derive from it, so the output for a given value must never change.
// It panics if v cannot be marshalled: every sealed type is plain data.
func Hash(v any) string {
	blob, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("seal: marshal %T: %v", v, err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}
