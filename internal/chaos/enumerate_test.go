package chaos

import (
	"fmt"
	"math/rand"
	"testing"

	"kdb/internal/fault"
	"kdb/internal/storage"
	"kdb/internal/term"
)

// crashImage is the disk as it stood after one file operation, with
// the durable states a crash there may leave.
type crashImage struct {
	disk    *fault.SimDisk
	allowed []factSet
}

// TestCrashStatesEnumerated crashes short histories — at most six
// writes (assert, retract, load) and a checkpoint, on a fresh store — at
// every point the simulated disk can: after every file operation, and
// with every combination of tail choices (nothing, a torn prefix or all
// of each unsynced file tail and directory change list). Each crash
// state must reopen and hold a fact set the model allows: every write
// acknowledged before the crash, no torn fact and no phantom, and of the
// write in flight its effect or not (for a load, a prefix of its new
// facts). This is the method of Pillai et al., "All File Systems Are
// Not Created Equal" (OSDI 2014), enumerated rather than sampled.
func TestCrashStatesEnumerated(t *testing.T) {
	prev := fault.Disk()
	defer fault.SetDisk(prev)
	states := 0
	for seed := int64(1); seed <= 200; seed++ {
		images, history := runHistory(t, seed)
		for _, img := range images {
			eachCrash(img.disk, func(d *fault.SimDisk) {
				states++
				fault.SetDisk(d)
				if err := reopenAllowed(img.allowed); err != nil {
					t.Fatalf("seed %d, history %v: %v", seed, history, err)
				}
			})
		}
	}
	t.Logf("checked %d crash states", states)
}

// runHistory runs one seeded history on a fresh simulated disk and
// returns the disk after every file operation — and after every
// acknowledgement, where only the acknowledged state is allowed.
func runHistory(t *testing.T, seed int64) ([]crashImage, []string) {
	rng := rand.New(rand.NewSource(seed))
	disk := fault.NewSimDisk()
	fault.SetDisk(disk)
	var images []crashImage
	allowed := []factSet{{}}
	disk.OnChange = func(d *fault.SimDisk) { images = append(images, crashImage{d, allowed}) }
	acked := func(ram factSet) {
		allowed = []factSet{ram.clone()}
		images = append(images, crashImage{disk.Clone(), allowed})
	}

	s, err := storage.Open("db")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ram := factSet{}
	acked(ram)
	pair := func() (string, string) {
		x, y := rng.Intn(3), rng.Intn(3)
		return alphabet[x : x+1], alphabet[y : y+1]
	}
	writes := 1 + rng.Intn(6)
	checkpointAt := rng.Intn(writes + 1)
	var history []string
	for i := 0; i <= writes; i++ {
		if i == checkpointAt {
			history = append(history, "checkpoint")
			allowed = []factSet{ram.clone()}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			acked(ram)
		}
		if i == writes {
			break
		}
		after := ram.clone()
		switch rng.Intn(3) {
		case 0:
			x, y := pair()
			history = append(history, "assert "+x+","+y)
			after[x+","+y] = true
			allowed = []factSet{ram.clone(), after}
			_, err = s.InsertAtom(edgeAtom(x, y))
		case 1:
			x, y := pair()
			history = append(history, "retract "+x+","+y)
			delete(after, x+","+y)
			allowed = []factSet{ram.clone(), after}
			_, err = s.DeleteAtom(edgeAtom(x, y))
		default:
			var atoms []term.Atom
			allowed = []factSet{ram.clone()}
			for n := 1 + rng.Intn(3); n > 0; n-- {
				x, y := pair()
				atoms = append(atoms, edgeAtom(x, y))
				if key := x + "," + y; !after[key] {
					after[key] = true
					allowed = append(allowed, after.clone()) // the batch's prefixes
				}
			}
			history = append(history, fmt.Sprintf("load %v", atoms))
			_, err = s.InsertAtoms(atoms)
		}
		if err != nil {
			t.Fatal(err)
		}
		ram = after
		acked(ram)
	}
	disk.OnChange = nil
	return images, history
}

// eachCrash visits every crash of img: every combination of the
// choices Crash asks for, each tail kept not at all, torn in half or
// whole. The choices a crash asks for depend on those made before (a
// directory change kept or lost decides which files survive), so the
// combinations are walked as an odometer over the choice sequence.
func eachCrash(img *fault.SimDisk, visit func(*fault.SimDisk)) {
	var script []int
	for {
		var arity []int
		d := img.Clone()
		d.Crash(func(n int) int {
			opts := []int{0, n}
			if n > 1 {
				opts = []int{0, n / 2, n}
			}
			choice := 0
			if len(arity) < len(script) {
				choice = script[len(arity)]
			}
			arity = append(arity, len(opts))
			return opts[choice]
		})
		visit(d)
		next := make([]int, len(arity))
		copy(next, script)
		j := len(next) - 1
		for j >= 0 && next[j]+1 >= arity[j] {
			j--
		}
		if j < 0 {
			return
		}
		next[j]++
		script = next[:j+1]
	}
}

// reopenAllowed opens the store on the installed disk and checks that
// it holds one of the allowed fact sets.
func reopenAllowed(allowed []factSet) error {
	s, err := storage.Open("db")
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer s.Close()
	observed := factSet{}
	for _, a := range s.Facts("edge") {
		observed[a.Args[0].Name()+","+a.Args[1].Name()] = true
	}
	for _, want := range allowed {
		if observed.equal(want) {
			return nil
		}
	}
	var sets [][]string
	for _, want := range allowed {
		sets = append(sets, want.sorted())
	}
	return fmt.Errorf("recovered %v, allowed %v", observed.sorted(), sets)
}
