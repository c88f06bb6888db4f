"""Module system: parameter containers with recursive traversal.

Mirrors the familiar ``torch.nn.Module`` contract: attribute assignment of
:class:`Parameter` and sub-:class:`Module` objects registers them, and
``parameters()`` / ``named_parameters()`` / ``modules()`` walk the tree.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .tensor import Tensor

__all__ = ["Parameter", "Module", "Sequential", "ModuleList", "HookHandle", "replace_module"]


class HookHandle:
    """Removal handle returned by :meth:`Module.register_forward_hook`."""

    def __init__(self, module: "Module", hook) -> None:
        self._module = module
        self._hook = hook

    def remove(self) -> None:
        if self._hook in self._module._forward_hooks:
            self._module._forward_hooks.remove(self._hook)


def replace_module(root: "Module", dot_path: str, replacement: "Module") -> "Module":
    """Swap the sub-module at ``dot_path`` for ``replacement``; return the old one.

    Used by defenses that temporarily wrap layers (e.g. ANP's masked convs).
    """
    parts = dot_path.split(".")
    parent = root
    for part in parts[:-1]:
        if part not in parent._modules:
            raise KeyError(f"no sub-module {part!r} on path {dot_path!r}")
        parent = parent._modules[part]
    leaf = parts[-1]
    if leaf not in parent._modules:
        raise KeyError(f"no sub-module {leaf!r} on path {dot_path!r}")
    old = parent._modules[leaf]
    setattr(parent, leaf, replacement)
    return old


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as a trainable model parameter."""

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural network layers and models."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._forward_hooks: List = []
        self.training: bool = True

    # ------------------------------------------------------------------
    # Registration via attribute assignment
    # ------------------------------------------------------------------
    def __setattr__(self, key: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[key] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[key] = value
        object.__setattr__(self, key, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable array saved with the state dict (e.g. BN stats)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def _update_buffer(self, name: str, value: np.ndarray) -> None:
        """Replace a registered buffer's value."""
        if name not in self._buffers:
            raise KeyError(f"no buffer named {name!r}")
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dot_path, Parameter)`` over this module and all children."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> List[Parameter]:
        """All trainable parameters, depth-first."""
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(dot_path, module)`` including self (path ``""``)."""
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        """All modules in the tree, depth-first, including self."""
        for _, module in self.named_modules():
            yield module

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        """Yield ``(dot_path, array)`` for every registered buffer."""
        for name, buf in self._buffers.items():
            yield (f"{prefix}{name}", buf)
        for mod_name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{mod_name}.")

    # ------------------------------------------------------------------
    # Mode & gradient management
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects BatchNorm and Dropout)."""
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    def zero_grad(self, set_to_none: bool = True) -> None:
        """Clear gradients of every parameter in the tree.

        ``set_to_none=False`` zeroes existing ``.grad`` buffers in place so
        repeated backwards (e.g. per-round filter scoring) reuse them.
        """
        for param in self.parameters():
            param.zero_grad(set_to_none=set_to_none)

    # ------------------------------------------------------------------
    # State dict
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[name] = np.asarray(buf).copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        param_map = dict(self.named_parameters())
        missing: List[str] = []
        for name, param in param_map.items():
            if name in state:
                if state[name].shape != param.data.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: checkpoint {state[name].shape} "
                        f"vs model {param.data.shape}"
                    )
                param.data[...] = state[name]
            else:
                missing.append(name)

        buffer_owners: Dict[str, Tuple[Module, str]] = {}
        for mod_name, module in self.named_modules():
            for buf_name in module._buffers:
                full = f"{mod_name}.{buf_name}" if mod_name else buf_name
                buffer_owners[full] = (module, buf_name)
        for full, (module, buf_name) in buffer_owners.items():
            if full in state:
                module._update_buffer(buf_name, state[full].copy())
            else:
                missing.append(full)

        if strict:
            known = set(param_map) | set(buffer_owners)
            unexpected = [k for k in state if k not in known]
            if missing or unexpected:
                raise KeyError(f"load_state_dict mismatch: missing={missing} unexpected={unexpected}")

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs) -> Tensor:
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        output = self.forward(*args, **kwargs)
        for hook in self._forward_hooks:
            hook(self, output)
        return output

    def register_forward_hook(self, hook) -> "HookHandle":
        """Register ``hook(module, output)`` to run after every forward.

        Hook outputs are graph-connected tensors, so losses built from them
        (e.g. NAD's attention distillation) backpropagate normally.
        """
        self._forward_hooks.append(hook)
        return HookHandle(self, hook)

    def __repr__(self) -> str:
        child_lines = [f"  ({name}): {module!r}" for name, module in self._modules.items()]
        header = self.__class__.__name__
        if not child_lines:
            return f"{header}()"
        body = "\n".join(child_lines).replace("\n", "\n  ")
        return f"{header}(\n  {body}\n)"

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.data.size for p in self.parameters())


class Sequential(Module):
    """Chain modules, feeding each output into the next module."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for index, module in enumerate(modules):
            setattr(self, str(index), module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def forward(self, x: Tensor) -> Tensor:
        for module in self._modules.values():
            x = module(x)
        return x


class ModuleList(Module):
    """Hold an indexable list of sub-modules (no implicit forward)."""

    def __init__(self, modules: Optional[List[Module]] = None) -> None:
        super().__init__()
        for index, module in enumerate(modules or []):
            setattr(self, str(index), module)

    def append(self, module: Module) -> "ModuleList":
        setattr(self, str(len(self._modules)), module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]
