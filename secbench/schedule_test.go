package main

import (
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	m := mix{Rate: 200, Duration: 5 * time.Second, ColdBase: 1500}
	warm := popularityOrder(7, warmKeys())
	a := buildSchedule(7, m, warm)
	b := buildSchedule(7, m, popularityOrder(7, warmKeys()))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if c := buildSchedule(8, m, popularityOrder(8, warmKeys())); reflect.DeepEqual(a, c) {
		t.Fatal("a different seed gave the same schedule")
	}
}

func TestScheduleShape(t *testing.T) {
	m := mix{Rate: 100, Duration: 20 * time.Second, ColdBase: 1500}
	warmList := warmKeys()
	warm := map[runKey]bool{}
	for _, k := range warmList {
		warm[k] = true
	}
	hot := popularityOrder(3, warmList)
	sched := buildSchedule(3, m, hot)
	var cold, dup int
	seen := map[runKey]bool{}
	hits := map[runKey]int{}
	for i, it := range sched {
		if i > 0 && it.Due < sched[i-1].Due {
			t.Fatal("schedule not in due order")
		}
		switch it.Pop {
		case popWarm:
			if !warm[it.Key] {
				t.Fatalf("warm request for a key outside the warm space: %s", it.Key)
			}
			hits[it.Key]++
		case popCold:
			cold++
			if warm[it.Key] || seen[it.Key] {
				t.Fatalf("cold key %s is not new", it.Key)
			}
			seen[it.Key] = true
		case popDup:
			dup++
			if !seen[it.Key] {
				t.Fatalf("duplicate of %s precedes its original", it.Key)
			}
		}
	}
	for k, n := range hits {
		if n > hits[hot[0]] {
			t.Fatalf("%s drawn %d times, more than the most popular key (%d)", k, n, hits[hot[0]])
		}
	}
	arrivals := len(sched) - dup
	if arrivals != 2000 {
		t.Fatalf("got %d arrivals, want rate x duration = 2000", arrivals)
	}
	if lo := 2000 / coldEvery; (cold != lo && cold != lo+1) || float64(cold)/2000 <= 0.01 {
		t.Fatalf("%d cold arrivals, want one in %d (and above 1%%)", cold, coldEvery)
	}
	if want := int(dupShare*float64(cold) + 0.5); dup != want {
		t.Fatalf("%d duplicates, want %d", dup, want)
	}
}
