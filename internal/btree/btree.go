package btree

import (
	"fmt"

	"redotheory/internal/model"
)

// SplitStrategy selects how node splits are logged.
type SplitStrategy int

const (
	// PhysiologicalSplit logs the new page as a physically-logged blind
	// image write plus a truncate of the old page (Section 6.3: each
	// operation reads and writes exactly one page, so the moved half must
	// travel through the log).
	PhysiologicalSplit SplitStrategy = iota
	// GeneralizedSplit logs the new page as a read-old-write-new
	// descriptor (Section 6.4, Figure 8); the cache manager's careful
	// write ordering replaces the physical image.
	GeneralizedSplit
)

// String names the strategy.
func (s SplitStrategy) String() string {
	if s == PhysiologicalSplit {
		return "physiological-split"
	}
	return "generalized-split"
}

// Executor runs the tree's logged operations; any recovery method's DB
// satisfies it.
type Executor interface {
	Read(model.Var) model.Value
	Exec(*model.Op) error
}

// Tree is a B+-tree over pages managed by a recovery method.
type Tree struct {
	ex       Executor
	strategy SplitStrategy
	// order is the maximum number of keys a node holds; a node at order
	// splits before it is descended into.
	order    int
	root     model.Var
	nextPage int
	nextOp   model.OpID
	// Splits counts node splits (including root splits).
	Splits int
}

// New returns a tree executing through ex. order is the max keys per node
// (≥ 2); firstOp seeds the operation id allocator.
func New(ex Executor, strategy SplitStrategy, order int, firstOp model.OpID) *Tree {
	if order < 2 {
		panic("btree: order must be at least 2")
	}
	return &Tree{ex: ex, strategy: strategy, order: order, root: "bt-root", nextOp: firstOp}
}

func (t *Tree) allocOp() model.OpID {
	id := t.nextOp
	t.nextOp++
	return id
}

func (t *Tree) allocPage() model.Var {
	t.nextPage++
	return model.Var(fmt.Sprintf("bt-n%04d", t.nextPage))
}

func (t *Tree) readPage(id model.Var) (*nodePage, error) {
	return decodePage(t.ex.Read(id))
}

// Insert adds a key, splitting full nodes on the way down.
func (t *Tree) Insert(key int64) error {
	for {
		root, err := t.readPage(t.root)
		if err != nil {
			return err
		}
		if root == nil {
			return t.ex.Exec(mkRootOp(t.allocOp(), t.root, key))
		}
		if len(root.Keys) >= t.order {
			if err := t.splitRoot(root); err != nil {
				return err
			}
			continue
		}
		restart, err := t.descendInsert(key)
		if err != nil {
			return err
		}
		if !restart {
			return nil
		}
	}
}

// descendInsert walks from the root to a leaf, splitting any full child
// it is about to enter (which requires a restart because separators
// change). It returns restart=true after performing a split.
func (t *Tree) descendInsert(key int64) (bool, error) {
	curID := t.root
	cur, err := t.readPage(curID)
	if err != nil {
		return false, err
	}
	for !cur.Leaf {
		idx := cur.childIndex(key)
		childID := cur.Kids[idx]
		child, err := t.readPage(childID)
		if err != nil {
			return false, err
		}
		if child == nil {
			return false, fmt.Errorf("btree: dangling child pointer %q in %q", childID, curID)
		}
		if len(child.Keys) >= t.order {
			if err := t.splitChild(curID, childID, child); err != nil {
				return false, err
			}
			return true, nil
		}
		curID, cur = childID, child
	}
	return false, t.ex.Exec(insertLeafOp(t.allocOp(), curID, key))
}

// splitChild splits a full non-root node under its parent.
func (t *Tree) splitChild(parentID, childID model.Var, child *nodePage) error {
	newID := t.allocPage()
	sep, _, right := child.splitPoint()
	switch t.strategy {
	case PhysiologicalSplit:
		// The new page's contents travel through the log as a physical
		// image.
		if err := t.ex.Exec(initImageOp(t.allocOp(), newID, encodePage(right))); err != nil {
			return err
		}
	case GeneralizedSplit:
		// The log carries only the descriptor; recovery recomputes the
		// image from the old page, which careful write ordering keeps
		// intact until this operation is installed.
		if err := t.ex.Exec(splitRightOp(t.allocOp(), childID, newID)); err != nil {
			return err
		}
	}
	if err := t.ex.Exec(truncateOp(t.allocOp(), childID)); err != nil {
		return err
	}
	if err := t.ex.Exec(parentInsertOp(t.allocOp(), parentID, sep, newID)); err != nil {
		return err
	}
	t.Splits++
	return nil
}

// splitRoot splits a full root in place: the halves move to two fresh
// pages and the root becomes an internal node over them.
func (t *Tree) splitRoot(root *nodePage) error {
	leftID, rightID := t.allocPage(), t.allocPage()
	_, left, right := root.splitPoint()
	switch t.strategy {
	case PhysiologicalSplit:
		if err := t.ex.Exec(initImageOp(t.allocOp(), leftID, encodePage(left))); err != nil {
			return err
		}
		if err := t.ex.Exec(initImageOp(t.allocOp(), rightID, encodePage(right))); err != nil {
			return err
		}
	case GeneralizedSplit:
		if err := t.ex.Exec(splitLeftToOp(t.allocOp(), t.root, leftID)); err != nil {
			return err
		}
		if err := t.ex.Exec(splitRightOp(t.allocOp(), t.root, rightID)); err != nil {
			return err
		}
	}
	if err := t.ex.Exec(rootToInternalOp(t.allocOp(), t.root, leftID, rightID)); err != nil {
		return err
	}
	t.Splits++
	return nil
}

// Delete removes a key from its leaf if present (no rebalancing).
func (t *Tree) Delete(key int64) error {
	id, page, err := t.findLeaf(key)
	if err != nil || page == nil {
		return err
	}
	return t.ex.Exec(deleteLeafOp(t.allocOp(), id, key))
}

// Search reports whether the key is present.
func (t *Tree) Search(key int64) (bool, error) {
	_, page, err := t.findLeaf(key)
	if err != nil || page == nil {
		return false, err
	}
	for _, k := range page.Keys {
		if k == key {
			return true, nil
		}
	}
	return false, nil
}

func (t *Tree) findLeaf(key int64) (model.Var, *nodePage, error) {
	curID := t.root
	cur, err := t.readPage(curID)
	if err != nil || cur == nil {
		return "", nil, err
	}
	for !cur.Leaf {
		idx := cur.childIndex(key)
		curID = cur.Kids[idx]
		if cur, err = t.readPage(curID); err != nil {
			return "", nil, err
		}
		if cur == nil {
			return "", nil, fmt.Errorf("btree: dangling pointer %q", curID)
		}
	}
	return curID, cur, nil
}

// Keys returns every key in ascending order.
func (t *Tree) Keys() ([]int64, error) {
	var out []int64
	var walk func(id model.Var) error
	walk = func(id model.Var) error {
		p, err := t.readPage(id)
		if err != nil {
			return err
		}
		if p == nil {
			return fmt.Errorf("btree: dangling pointer %q", id)
		}
		if p.Leaf {
			out = append(out, p.Keys...)
			return nil
		}
		for _, kid := range p.Kids {
			if err := walk(kid); err != nil {
				return err
			}
		}
		return nil
	}
	root, err := t.readPage(t.root)
	if err != nil || root == nil {
		return nil, err
	}
	if err := walk(t.root); err != nil {
		return nil, err
	}
	return out, nil
}

// Validate checks the structural invariants: per-node key order and
// capacity, separator bounds, and uniform leaf depth. It reads through
// the executor, so it can run against a recovered state.
func (t *Tree) Validate() error {
	root, err := t.readPage(t.root)
	if err != nil {
		return err
	}
	if root == nil {
		return nil // empty tree
	}
	leafDepth := -1
	var walk func(id model.Var, lo, hi *int64, depth int) error
	walk = func(id model.Var, lo, hi *int64, depth int) error {
		p, err := t.readPage(id)
		if err != nil {
			return err
		}
		if p == nil {
			return fmt.Errorf("btree: dangling pointer %q", id)
		}
		if len(p.Keys) > t.order {
			return fmt.Errorf("btree: node %q overflows: %d keys > order %d", id, len(p.Keys), t.order)
		}
		for i := 0; i+1 < len(p.Keys); i++ {
			if p.Keys[i] >= p.Keys[i+1] {
				return fmt.Errorf("btree: node %q keys out of order at %d", id, i)
			}
		}
		for _, k := range p.Keys {
			if lo != nil && k < *lo {
				return fmt.Errorf("btree: node %q key %d below bound %d", id, k, *lo)
			}
			if hi != nil && k >= *hi {
				return fmt.Errorf("btree: node %q key %d not below bound %d", id, k, *hi)
			}
		}
		if p.Leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("btree: leaves at depths %d and %d", leafDepth, depth)
			}
			return nil
		}
		if len(p.Kids) != len(p.Keys)+1 {
			return fmt.Errorf("btree: node %q has %d keys but %d children", id, len(p.Keys), len(p.Kids))
		}
		for i, kid := range p.Kids {
			var klo, khi *int64
			if i > 0 {
				klo = &p.Keys[i-1]
			} else {
				klo = lo
			}
			if i < len(p.Keys) {
				khi = &p.Keys[i]
			} else {
				khi = hi
			}
			if err := walk(kid, klo, khi, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.root, nil, nil, 0)
}
