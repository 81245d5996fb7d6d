package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"sim/internal/pager"
)

// refTree is the sorted-map reference a B+tree is checked against.
type refTree map[string][]byte

func (r refTree) sortedKeys() []string {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// diffKey builds keys of the shape "gg/nnnnn" plus a variable tail, so
// neighbouring keys usually differ before their last byte (the prefix
// seeks below need that) and groups give SeekPrefix something to select.
func diffKey(rng *rand.Rand) string {
	return fmt.Sprintf("%02d/%05d", rng.Intn(8), rng.Intn(2000)) + strings.Repeat("t", rng.Intn(24))
}

// diffValue is usually small, sometimes empty, and sometimes well past
// maxInlineVal so it lives on a multi-page overflow chain.
func diffValue(rng *rand.Rand, k string) []byte {
	n := rng.Intn(60)
	switch rng.Intn(10) {
	case 0:
		n = maxInlineVal + 1 + rng.Intn(3*pager.PageSize)
	case 1:
		n = 0
	}
	v := make([]byte, n)
	for i := range v {
		v[i] = k[i%len(k)] ^ byte(i)
	}
	return v
}

// expectRun checks that c yields exactly want (keys of ref, in order),
// then goes invalid with no error. Every step also appends to Key and
// Value, which must not disturb anything the cursor reads later.
func expectRun(t *testing.T, what string, c *Cursor, ref refTree, want []string) {
	t.Helper()
	for i, k := range want {
		if !c.Valid() || c.Err() != nil {
			t.Fatalf("%s: step %d: Valid=%v Err=%v, want key %q", what, i, c.Valid(), c.Err(), k)
		}
		_ = append(c.Key(), 'X')
		_ = append(c.Value(), 'X')
		if string(c.Key()) != k {
			t.Fatalf("%s: step %d: key %q, want %q", what, i, c.Key(), k)
		}
		if !bytes.Equal(c.Value(), ref[k]) {
			t.Fatalf("%s: step %d (%q): value of %d bytes differs from the %d-byte reference",
				what, i, k, len(c.Value()), len(ref[k]))
		}
		c.Next()
	}
	if c.Valid() || c.Err() != nil {
		t.Fatalf("%s: after %d keys: Valid=%v Err=%v, want exhausted", what, len(want), c.Valid(), c.Err())
	}
}

// leafInfo is one leaf of the sibling chain: its cell count and its
// first and last keys.
type leafInfo struct {
	n           int
	first, last string
}

// leafChain walks tr's leaves left to right.
func leafChain(t *testing.T, tr *Tree) []leafInfo {
	t.Helper()
	id := tr.root
	for {
		f, err := tr.a.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		n := node{f}
		if n.isLeaf() {
			tr.a.Release(f)
			break
		}
		next := n.interiorChild(0)
		if n.nCells() == 0 {
			next = n.next()
		}
		tr.a.Release(f)
		id = next
	}
	var out []leafInfo
	for id != pager.Invalid {
		f, err := tr.a.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		n := node{f}
		li := leafInfo{n: n.nCells()}
		if li.n > 0 {
			li.first, li.last = string(n.leafKey(0)), string(n.leafKey(li.n-1))
		}
		out = append(out, li)
		id = n.next()
		tr.a.Release(f)
	}
	return out
}

// TestCursorDifferential drives seeded random trees with Put and Delete
// and checks every cursor step against a sorted-map reference: full
// scans, lower-bound seeks, prefix seeks (including ones whose first match
// starts the next leaf), seeks past the last key, emptied leaves left by
// Delete, and overflow-chain values — all through one cursor that is
// reused across two trees.
func TestCursorDifferential(t *testing.T) {
	empty, _ := newTree(t)
	c := &Cursor{}
	if err := empty.SeekInto(c, nil); err != nil {
		t.Fatal(err)
	}
	expectRun(t, "First on an empty tree", c, nil, nil)

	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		trees := make([]*Tree, 2)
		refs := []refTree{{}, {}}
		for i := range trees {
			trees[i], _ = newTree(t)
		}
		var emptiedLeaves, crossLeafPrefixes int
		for round := 0; round < 12; round++ {
			for ti, tr := range trees {
				ref := refs[ti]
				for op := 0; op < 150; op++ {
					k := diffKey(rng)
					v := diffValue(rng, k)
					if err := tr.Put([]byte(k), v); err != nil {
						t.Fatal(err)
					}
					ref[k] = v
				}
				// Delete a contiguous run of keys (emptying whole leaves
				// once runs are long) plus a few scattered ones.
				keys := ref.sortedKeys()
				if len(keys) > 0 {
					lo := rng.Intn(len(keys))
					hi := min(len(keys), lo+rng.Intn(120))
					for _, k := range keys[lo:hi] {
						if ok, err := tr.Delete([]byte(k)); !ok || err != nil {
							t.Fatalf("Delete(%q) = %v, %v", k, ok, err)
						}
						delete(ref, k)
					}
				}
				for i := 0; i < 10; i++ {
					k := diffKey(rng)
					_, want := ref[k]
					if ok, err := tr.Delete([]byte(k)); ok != want || err != nil {
						t.Fatalf("Delete(%q) = %v, %v; want %v", k, ok, err, want)
					}
					delete(ref, k)
				}
			}

			// Alternate trees through the one cursor.
			for probe := 0; probe < 40; probe++ {
				ti := rng.Intn(2)
				tr, ref := trees[ti], refs[ti]
				keys := ref.sortedKeys()
				what := fmt.Sprintf("seed %d round %d tree %d", seed, round, ti)
				switch probe % 4 {
				case 0:
					if err := tr.SeekInto(c, nil); err != nil {
						t.Fatal(err)
					}
					expectRun(t, what+" full scan", c, ref, keys)
				case 1:
					k := diffKey(rng)
					if err := tr.SeekInto(c, []byte(k)); err != nil {
						t.Fatal(err)
					}
					expectRun(t, fmt.Sprintf("%s Seek(%q)", what, k), c, ref, keys[sort.SearchStrings(keys, k):])
				case 2:
					p := diffKey(rng)[:rng.Intn(6)]
					if err := tr.SeekPrefixInto(c, []byte(p)); err != nil {
						t.Fatal(err)
					}
					var want []string
					for _, k := range keys {
						if strings.HasPrefix(k, p) {
							want = append(want, k)
						}
					}
					expectRun(t, fmt.Sprintf("%s SeekPrefix(%q)", what, p), c, ref, want)
				case 3:
					if err := tr.SeekInto(c, []byte("\xff")); err != nil {
						t.Fatal(err)
					}
					expectRun(t, what+" seek past the last key", c, ref, nil)
				}
			}

			// Prefix seeks that land between two leaves: the prefix sorts
			// after the left leaf's last key and is a strict prefix of the
			// right leaf's first key, so the seek ends the left leaf at
			// i == nCells and must find its first match on the next one.
			for ti, tr := range trees {
				ref := refs[ti]
				keys := ref.sortedKeys()
				var prevLast string
				for _, li := range leafChain(t, tr) {
					if li.n == 0 {
						emptiedLeaves++
						continue
					}
					if prevLast != "" {
						d := 0
						for d < len(prevLast) && prevLast[d] == li.first[d] {
							d++
						}
						if p := li.first[:d+1]; p != li.first {
							crossLeafPrefixes++
							if err := tr.SeekPrefixInto(c, []byte(p)); err != nil {
								t.Fatal(err)
							}
							lo := sort.SearchStrings(keys, p)
							hi := lo
							for hi < len(keys) && strings.HasPrefix(keys[hi], p) {
								hi++
							}
							expectRun(t, fmt.Sprintf("seed %d tree %d cross-leaf SeekPrefix(%q)", seed, ti, p), c, ref, keys[lo:hi])
						}
					}
					prevLast = li.last
				}
			}
		}
		if emptiedLeaves == 0 || crossLeafPrefixes == 0 {
			t.Fatalf("seed %d: emptied leaves seen %d times, cross-leaf prefix seeks %d: a path went unexercised",
				seed, emptiedLeaves, crossLeafPrefixes)
		}
	}
}
