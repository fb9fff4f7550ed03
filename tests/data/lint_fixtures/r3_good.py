"""Known-good R3 fixture: exported state paired with its rebuild."""


class WellFormedCompiled:
    def evaluate(self, indices, scores, k):
        return self._matrix[indices].mean(axis=0)

    def export_state(self):
        return {"matrix": self._matrix}, {}

    @classmethod
    def from_state(cls, arrays, metadata):
        instance = cls.__new__(cls)
        instance._matrix = arrays["matrix"]
        return instance
