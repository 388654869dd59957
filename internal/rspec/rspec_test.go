package rspec

import (
	"bytes"
	"encoding/xml"
	"reflect"
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
	var back Advertisement
	if err := xml.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	back.XMLName = xml.Name{}
	if !reflect.DeepEqual(&back, ad) {
		t.Errorf("round trip changed the advertisement:\n got %+v\nwant %+v", back, *ad)
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

func BenchmarkEncode(b *testing.B) {
	ad := sampleAd()
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := ad.Encode(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
