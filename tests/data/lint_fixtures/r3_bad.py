"""Known-bad R3 fixture: exported compiled state nothing can rebuild."""


class ExportWithoutFromState:  # LINT-EXPECT: R3
    def export_state(self):
        return {}, {}
