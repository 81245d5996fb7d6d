package btree

import (
	"bytes"

	"sim/internal/pager"
)

// Cursor iterates key/value pairs in ascending key order. On each leaf
// visit it copies the page once into a buffer it owns, then decodes only
// the cell it stands on (reading an overflow chain for that cell alone),
// so positioning costs one page copy and one cell however long the leaf.
// The tree may be read (but not mutated) concurrently; the executor
// materializes update target lists before mutating.
type Cursor struct {
	t         *Tree       // tree positioned in; when non-nil, leaf is one of its leaves
	leaf      pager.Frame // private copy of the current leaf; Data is reused
	i         int
	key, val  []byte // the current cell, capacity-capped
	ovf       []byte // reused backing for an overflow value
	valid     bool
	err       error
	prefix    []byte // non-nil: iteration stops when keys leave this prefix
	prefixBuf []byte // reused backing for prefix across SeekPrefixInto calls
	lo        []byte // lower fence of the held leaf; nil: its first key (see holds)
	loBuf     []byte // reused backing for lo
}

// First returns a cursor positioned at the smallest key.
func (t *Tree) First() (*Cursor, error) { return t.Seek(nil) }

// Seek returns a cursor positioned at the first key >= key.
func (t *Tree) Seek(key []byte) (*Cursor, error) {
	c := &Cursor{}
	if err := t.SeekInto(c, key); err != nil {
		return nil, err
	}
	return c, nil
}

// SeekInto positions c at the first key >= key, reusing c's internal
// buffers. A zero Cursor is ready for use; reusing one across seeks makes
// repeated point probes allocation-free in the steady state.
//
// On a frozen tree, a cursor that already holds a leaf of this same
// handle, whose key range brackets key, searches that copy instead of
// descending from the root: the lower bound of key lies in that leaf, and
// the leaf cannot have changed. This is the paper's next-instance cost
// for probes that walk a structure in key order. Live (mutable) handles
// always descend.
func (t *Tree) SeekInto(c *Cursor, key []byte) error {
	held := c.holds(t, key)
	c.t = t
	c.err = nil
	c.valid = false
	c.prefix = nil
	if !held {
		if err := t.descend(c, key); err != nil {
			c.t = nil // the leaf copy may belong to another tree
			return err
		}
	}
	i, _ := leafSearch(node{&c.leaf}, key)
	c.settle(i)
	return c.err
}

// holds reports whether c may answer a seek for key in t from the leaf
// it holds: t is frozen, the leaf was read through t, and key falls
// between the leaf's lower fence and its last key. The fence is the
// leaf's first key, or, when the cursor reached the leaf by walking off
// the end of a non-empty left sibling, the key just above that sibling's
// last key: no key of the tree lies between the two.
func (c *Cursor) holds(t *Tree, key []byte) bool {
	if !t.frozen || c.t != t {
		return false
	}
	n := node{&c.leaf}
	nc := n.nCells()
	if nc == 0 {
		return false
	}
	lo := c.lo
	if lo == nil {
		lo = n.leafKey(0)
	}
	return bytes.Compare(lo, key) <= 0 && bytes.Compare(key, n.leafKey(nc-1)) <= 0
}

// descend walks from the root to the leaf that may hold key and copies it
// into c.
func (t *Tree) descend(c *Cursor, key []byte) error {
	id := t.root
	for {
		f, err := t.a.Get(id)
		if err != nil {
			return err
		}
		n := node{f}
		if err := n.check(); err != nil {
			t.a.Release(f)
			return err
		}
		if !n.isLeaf() {
			_, child := route(n, key)
			t.a.Release(f)
			id = child
			continue
		}
		c.load(f)
		c.lo = nil
		t.a.Release(f)
		return nil
	}
}

// SeekPrefix returns a cursor over exactly the keys beginning with prefix.
func (t *Tree) SeekPrefix(prefix []byte) (*Cursor, error) {
	c := &Cursor{}
	if err := t.SeekPrefixInto(c, prefix); err != nil {
		return nil, err
	}
	return c, nil
}

// SeekPrefixInto is SeekPrefix into a caller-reused cursor.
func (t *Tree) SeekPrefixInto(c *Cursor, prefix []byte) error {
	if err := t.SeekInto(c, prefix); err != nil {
		return err
	}
	c.prefixBuf = append(c.prefixBuf[:0], prefix...)
	c.prefix = c.prefixBuf
	c.checkPrefix()
	return nil
}

// load copies the pinned leaf page f into the cursor's own buffer.
func (c *Cursor) load(f *pager.Frame) {
	if c.leaf.Data == nil {
		c.leaf.Data = make([]byte, pager.PageSize)
	}
	c.leaf.ID = f.ID
	copy(c.leaf.Data, f.Data)
}

// settle positions the cursor on cell i of its leaf copy, following the
// sibling chain past exhausted and emptied leaves, and decodes that cell.
func (c *Cursor) settle(i int) {
	n := node{&c.leaf}
	for i >= n.nCells() {
		next := n.next()
		if next == pager.Invalid {
			c.valid = false
			return
		}
		f, err := c.t.a.Get(next)
		if err != nil {
			c.fail(err)
			return
		}
		// Keys above this leaf's last key start at the next leaf. An
		// emptied leaf passes its own fence on.
		if nc := n.nCells(); nc > 0 {
			c.loBuf = append(append(c.loBuf[:0], n.leafKey(nc-1)...), 0)
			c.lo = c.loBuf
		}
		c.load(f)
		c.t.a.Release(f)
		i = 0
	}
	c.i = i
	k := n.leafKey(i)
	c.key = k[:len(k):len(k)]
	inline, ovf, total := n.leafValueInfo(i)
	if ovf == pager.Invalid {
		c.val = inline[:len(inline):len(inline)]
	} else {
		v, err := c.t.readOverflow(c.ovf, ovf, total)
		if err != nil {
			c.fail(err)
			return
		}
		c.ovf = v
		c.val = v[:len(v):len(v)]
	}
	c.valid = true
}

func (c *Cursor) fail(err error) {
	c.err = err
	c.valid = false
}

// Valid reports whether the cursor is positioned on an entry.
func (c *Cursor) Valid() bool { return c.valid && c.err == nil }

// Err returns the first error encountered while iterating.
func (c *Cursor) Err() error { return c.err }

// Key returns the current key (valid until Next).
func (c *Cursor) Key() []byte { return c.key }

// Value returns the current value (valid until Next).
func (c *Cursor) Value() []byte { return c.val }

// Next advances the cursor.
func (c *Cursor) Next() {
	if !c.Valid() {
		return
	}
	c.settle(c.i + 1)
	c.checkPrefix()
}

func (c *Cursor) checkPrefix() {
	if c.prefix != nil && c.Valid() && !bytes.HasPrefix(c.Key(), c.prefix) {
		c.valid = false
	}
}
