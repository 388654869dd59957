package rspec

import (
	"bytes"
	"strings"
	"testing"

	"fedshare/internal/sfa"
)

func sampleAd() *Advertisement {
	ad := New("PLE")
	ad.Sites = []Site{
		{ID: "ple-site0", Name: "UPMC", Nodes: []Node{
			{ID: "node0", HostName: "n0.upmc.example", Capacity: 10, Free: 10},
			{ID: "node1", HostName: "n1.upmc.example", Capacity: 10, Free: 4},
		}},
		{ID: "ple-site1", Name: "INRIA", Nodes: []Node{
			{ID: "node0", Capacity: 5, Free: 5},
		}},
	}
	return ad
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ad := sampleAd()
	var buf bytes.Buffer
	if err := ad.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `<?xml`) || !strings.Contains(out, `authority="PLE"`) {
		t.Errorf("unexpected XML: %s", out)
	}
	back, err := Decode(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if back.Authority != "PLE" || len(back.Sites) != 2 {
		t.Errorf("round trip lost structure: %+v", back)
	}
	if back.Sites[0].Nodes[1].Free != 4 {
		t.Errorf("free count lost: %+v", back.Sites[0].Nodes[1])
	}
	if back.TotalCapacity() != 25 {
		t.Errorf("total capacity %d", back.TotalCapacity())
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []func(*Advertisement){
		func(a *Advertisement) { a.Type = "request" },
		func(a *Advertisement) { a.Authority = "" },
		func(a *Advertisement) { a.Sites[0].ID = "" },
		func(a *Advertisement) { a.Sites[1].ID = a.Sites[0].ID },
		func(a *Advertisement) { a.Sites[0].Nodes[0].ID = "" },
		func(a *Advertisement) { a.Sites[0].Nodes[1].ID = "node0" },
		func(a *Advertisement) { a.Sites[0].Nodes[0].Capacity = -1 },
		func(a *Advertisement) { a.Sites[0].Nodes[0].Free = 99 },
	}
	for i, mutate := range cases {
		ad := sampleAd()
		mutate(ad)
		if err := ad.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	if err := sampleAd().Validate(); err != nil {
		t.Errorf("sample should validate: %v", err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode(strings.NewReader("not xml at all")); err == nil {
		t.Error("garbage must fail")
	}
	if _, err := Decode(strings.NewReader(`<rspec type="advertisement"></rspec>`)); err == nil {
		t.Error("missing authority must fail validation")
	}
}

func TestCompare(t *testing.T) {
	oldAd := sampleAd()
	newAd := sampleAd()
	if d := Compare(oldAd, newAd); !d.Empty() {
		t.Errorf("identical ads should diff empty: %+v", d)
	}
	// Grow site0, drop site1, add site2.
	newAd.Sites[0].Nodes[0].Capacity = 20
	newAd.Sites = append(newAd.Sites[:1], Site{ID: "ple-site2", Nodes: []Node{{ID: "n", Capacity: 1, Free: 1}}})
	d := Compare(oldAd, newAd)
	if len(d.Added) != 1 || d.Added[0] != "ple-site2" {
		t.Errorf("added = %v", d.Added)
	}
	if len(d.Removed) != 1 || d.Removed[0] != "ple-site1" {
		t.Errorf("removed = %v", d.Removed)
	}
	if ch, ok := d.CapacityChanged["ple-site0"]; !ok || ch != [2]int{20, 30} {
		t.Errorf("capacity change = %v", d.CapacityChanged)
	}
	if d.Empty() {
		t.Error("diff should be nonempty")
	}
}

func TestResourceListRoundTrip(t *testing.T) {
	rl := sfa.ResourceList{
		Authority: "PLJ",
		Sites: []sfa.SiteResource{
			{SiteID: "s0", Name: "Tokyo", Nodes: 3, Capacity: 10, Free: 7},
			{SiteID: "s1", Name: "Osaka", Nodes: 1, Capacity: 4, Free: 0},
		},
	}
	ad := FromResourceList(rl)
	if err := ad.Validate(); err != nil {
		t.Fatal(err)
	}
	back := toResourceList(ad)
	if back.Authority != "PLJ" || len(back.Sites) != 2 {
		t.Fatalf("round trip: %+v", back)
	}
	for i := range rl.Sites {
		if back.Sites[i].Capacity != rl.Sites[i].Capacity {
			t.Errorf("site %d capacity %d != %d", i, back.Sites[i].Capacity, rl.Sites[i].Capacity)
		}
		if back.Sites[i].Free != rl.Sites[i].Free {
			t.Errorf("site %d free %d != %d", i, back.Sites[i].Free, rl.Sites[i].Free)
		}
		if back.Sites[i].Nodes != rl.Sites[i].Nodes {
			t.Errorf("site %d nodes %d != %d", i, back.Sites[i].Nodes, rl.Sites[i].Nodes)
		}
	}
}

// toResourceList converts an advertisement back into the SFA wire format,
// the inverse FromResourceList is checked against.
func toResourceList(ad *Advertisement) sfa.ResourceList {
	rl := sfa.ResourceList{Authority: ad.Authority}
	for _, s := range ad.Sites {
		capTotal, free := 0, 0
		for _, n := range s.Nodes {
			capTotal += n.Capacity
			if n.Free > 0 {
				free += n.Free
			}
		}
		rl.Sites = append(rl.Sites, sfa.SiteResource{
			SiteID:   s.ID,
			Name:     s.Name,
			Nodes:    len(s.Nodes),
			Capacity: capTotal,
			Free:     free,
		})
	}
	return rl
}

func BenchmarkEncodeDecode(b *testing.B) {
	ad := sampleAd()
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := ad.Encode(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := Decode(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
