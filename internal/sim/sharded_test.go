package sim

import (
	"fmt"
	"testing"
)

func TestShardableMethodsExcludesPhysical(t *testing.T) {
	ms := ShardableMethods()
	if len(ms) != len(DefaultMethods())-1 {
		t.Fatalf("%d shardable methods, want all but physical", len(ms))
	}
	for _, m := range ms {
		if m.Name == "physical" {
			t.Fatal("physical listed as shardable")
		}
	}
}

// TestCheckShardedGrid runs the sharded leg over every shardable method
// × shards {2, 4} × synchronized and staggered crash points × seeds
// {1, 2} (ShardCampaign's grid at 36 operations over 4 pages a shard).
func TestCheckShardedGrid(t *testing.T) {
	rs, err := ShardCampaign(Grid{Methods: ShardableMethods(), Ops: 36, Pages: 4, Seeds: []int64{1, 2}}, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(ShardableMethods())*2*2*2 {
		t.Fatalf("%d cells", len(rs))
	}
	for _, r := range rs {
		if !r.OK() || r.Sharded == nil {
			t.Errorf("%s: %s: %s", r.Cell.String(), r.Check, r.Detail)
		}
	}
}

func TestCheckShardedRejectsPhysical(t *testing.T) {
	var physical NamedFactory
	for _, m := range DefaultMethods() {
		if m.Name == "physical" {
			physical = m
		}
	}
	if _, err := ShardCampaign(Grid{Methods: []NamedFactory{physical}, Ops: 36, Pages: 4, Seeds: []int64{1}}, []int{2}); err == nil {
		t.Fatal("ShardCampaign accepted physical logging")
	}
	// A cell built by hand reaches the leg, which refuses it.
	r, err := Run(Cell{Method: physical, Pages: 8, Shards: []int{0, 0}}, LegSharded)
	if err != nil {
		t.Fatal(err)
	}
	if r.Check != "sharded-error" {
		t.Fatalf("sharded leg on physical logging: check %q, want sharded-error", r.Check)
	}
}

func ExampleShardCampaign() {
	rs, err := ShardCampaign(Grid{Methods: ShardableMethods()[:1], Ops: 36, Pages: 4, Seeds: []int64{3}}, []int{2})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(rs[0].Cell.Method.Name, rs[0].OK())
	// Output: logical true
}
