package sev

import (
	"fmt"
	"sort"
	"strings"
)

// This file implements the review process of §4.2: "Each SEV goes through
// a review process to verify the accuracy and completeness of the report."
// A report is published only once a reviewer signs off and the
// completeness checks pass; review findings name what is missing.

// CompletenessIssues returns the §4.2 review findings for a report: the
// fields an incident review would bounce the report for. An empty slice
// means the report is complete.
func CompletenessIssues(r *Report) []string {
	var issues []string
	if strings.TrimSpace(r.Title) == "" {
		issues = append(issues, "missing title")
	}
	if strings.TrimSpace(r.Impact) == "" {
		issues = append(issues, "missing service-level impact description")
	}
	// An empty root-cause list is acceptable — 29% of the paper's SEVs are
	// undetermined; the impact/title requirements above ensure the
	// symptoms are at least described.
	if r.Duration == 0 {
		issues = append(issues, "zero incident duration")
	}
	if r.Severity != Sev3 && len(r.ServicesAffected) == 0 {
		issues = append(issues, "service-affecting SEV lists no affected services")
	}
	sort.Strings(issues)
	return issues
}

// Publish runs the review on the stored report: if the completeness checks
// pass, the report is marked reviewed with the reviewer recorded;
// otherwise Publish returns an error naming every finding and the report
// stays unreviewed.
func (s *Store) Publish(id int, reviewer string) error {
	if strings.TrimSpace(reviewer) == "" {
		return fmt.Errorf("sev: empty reviewer")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.posLocked(id)
	if !ok {
		return fmt.Errorf("sev: no report with ID %d", id)
	}
	r := &s.reports[i]
	if r.Reviewed {
		return fmt.Errorf("sev: report %d already published", id)
	}
	if issues := CompletenessIssues(r); len(issues) > 0 {
		return fmt.Errorf("sev: report %d incomplete: %s", id, strings.Join(issues, "; "))
	}
	r.Reviewed = true
	r.Reviewer = reviewer
	return nil
}

// Unreviewed returns the IDs of reports that have not passed review, in
// ID order — the review queue.
func (s *Store) Unreviewed() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var ids []int
	for i := range s.reports {
		if !s.reports[i].Reviewed {
			ids = append(ids, s.reports[i].ID)
		}
	}
	return ids
}
