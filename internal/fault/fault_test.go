package fault

import "testing"

func TestSumFraming(t *testing.T) {
	if Sum("ab", "c") == Sum("a", "bc") {
		t.Fatal("length framing missing: (ab,c) collides with (a,bc)")
	}
	if Sum("x") != Sum("x") {
		t.Fatal("Sum is not deterministic")
	}
	if Sum() == Sum("") {
		t.Fatal("empty part should differ from no parts")
	}
}

func TestInjectorDeterminism(t *testing.T) {
	a, b := Plan{Seed: 7, Kind: LostWrite}.New(), Plan{Seed: 7, Kind: LostWrite}.New()
	pages := []string{"p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"}
	var lostA, lostB []string
	for _, p := range pages {
		if a.LoseWrite(p) {
			lostA = append(lostA, p)
		}
		if b.LoseWrite(p) {
			lostB = append(lostB, p)
		}
	}
	if len(lostA) == 0 {
		t.Fatal("lost-write never fired over 8 writes")
	}
	if len(lostA) != len(lostB) || lostA[0] != lostB[0] {
		t.Fatalf("same seed diverged: %v vs %v", lostA, lostB)
	}
	if !a.HasFired() || a.Fired()[0].Kind != LostWrite {
		t.Fatalf("fired events not recorded: %v", a.Fired())
	}
}

func TestInjectorDeadSector(t *testing.T) {
	in := Plan{Seed: 1, Kind: LostWrite}.New()
	var dead string
	for i := 0; i < 20; i++ {
		if in.LoseWrite("pg") {
			dead = "pg"
			break
		}
	}
	if dead == "" {
		t.Fatal("repeated writes to one page never nominated it")
	}
	if !in.LoseWrite("pg") {
		t.Fatal("subsequent writes to the dead page must also be lost")
	}
	if in.LoseWrite("other") {
		t.Fatal("writes to other pages must not be lost")
	}
	if len(in.Fired()) != 1 {
		t.Fatalf("dead sector fired %d events, want 1", len(in.Fired()))
	}
}

func TestTearGroupOnce(t *testing.T) {
	in := Plan{Seed: 3, Kind: TornGroup}.New()
	if _, ok := in.TearGroup(1); ok {
		t.Fatal("single-page groups must not tear")
	}
	keep, ok := in.TearGroup(5)
	if !ok {
		t.Fatal("armed torn-group did not fire on a 5-page group")
	}
	if keep < 0 || keep >= 5 {
		t.Fatalf("keep=%d out of range [0,5)", keep)
	}
	if _, ok := in.TearGroup(5); ok {
		t.Fatal("torn-group fired twice")
	}
}

func TestUnarmedAndNil(t *testing.T) {
	in := Plan{Seed: 1, Kind: PageBitRot}.New()
	if in.LoseWrite("p") {
		t.Fatal("unarmed LoseWrite fired")
	}
	if _, ok := in.TearGroup(4); ok {
		t.Fatal("unarmed TearGroup fired")
	}
	var none *Injector
	if none.armed(PageBitRot) || none.HasFired() {
		t.Fatal("nil injector must be inert")
	}
	if len(Kinds()) != 6 {
		t.Fatalf("want 6 fault kinds, got %d", len(Kinds()))
	}
}
